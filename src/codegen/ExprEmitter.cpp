//===- ExprEmitter.cpp - Emit stencil expressions as C/CUDA text ------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/ExprEmitter.h"

#include <cassert>
#include <charconv>

namespace an5d {

/// \p Value spelled exactly as printf's "%.<Precision>g" would (to_chars
/// with an explicit precision is specified to match it, without the
/// locale and format-string overhead).
static std::string formatGeneral(double Value, int Precision) {
  char Buffer[64];
  return std::string(Buffer,
                     std::to_chars(Buffer, Buffer + sizeof(Buffer), Value,
                                   std::chars_format::general, Precision)
                         .ptr);
}

std::string emitLiteral(double Value, ScalarType Type) {
  if (Type == ScalarType::Float) {
    std::string S = formatGeneral(Value, 9);
    // "118f" is not a valid literal; force a decimal point first.
    if (S.find('.') == std::string::npos &&
        S.find('e') == std::string::npos)
      S += ".0";
    return S + "f";
  } else {
    // Ensure a double literal (avoid bare integers turning into int
    // arithmetic).
    std::string S = formatGeneral(Value, 17);
    if (S.find('.') == std::string::npos &&
        S.find('e') == std::string::npos &&
        S.find("inf") == std::string::npos)
      S += ".0";
    return S;
  }
}

std::string defaultReadMacro(const GridReadExpr &Read) {
  std::string Out = "READ(";
  for (std::size_t D = 0; D < Read.offsets().size(); ++D) {
    if (D != 0)
      Out += ", ";
    Out += std::to_string(Read.offsets()[D]);
  }
  Out += ')';
  return Out;
}

/// Maps a math builtin to the type-appropriate CUDA/C spelling.
static std::string mathCallSpelling(const std::string &Callee,
                                    ScalarType Type) {
  std::string Base = Callee;
  if (!Base.empty() && Base.back() == 'f')
    Base.pop_back(); // normalize sqrtf -> sqrt
  if (Type == ScalarType::Float)
    return Base + "f";
  return Base;
}

/// Pre-rounds \p Value for emission: under ExactFloatLiterals a float
/// literal is formatted from the value the evaluators actually use.
static double literalValue(double Value, const ExprEmitOptions &Options) {
  if (Options.ExactFloatLiterals && Options.Type == ScalarType::Float)
    return static_cast<double>(static_cast<float>(Value));
  return Value;
}

std::string emitExpr(const StencilExpr &E, const ExprEmitOptions &Options) {
  switch (E.kind()) {
  case StencilExpr::Kind::Number:
    return emitLiteral(literalValue(cast<NumberExpr>(E).value(), Options),
                       Options.Type);
  case StencilExpr::Kind::Coefficient: {
    assert(Options.Program && "coefficient emission requires value bindings");
    double Value =
        Options.Program->coefficientValue(cast<CoefficientExpr>(E).name());
    return emitLiteral(literalValue(Value, Options), Options.Type);
  }
  case StencilExpr::Kind::GridRead:
    assert(Options.ReadEmitter && "read emitter required");
    return Options.ReadEmitter(cast<GridReadExpr>(E));
  case StencilExpr::Kind::Unary:
    return "(-" + emitExpr(cast<UnaryExpr>(E).operand(), Options) + ")";
  case StencilExpr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    return "(" + emitExpr(B.lhs(), Options) + " " +
           binaryOpSpelling(B.op()) + " " + emitExpr(B.rhs(), Options) + ")";
  }
  case StencilExpr::Kind::Call: {
    const auto &C = cast<CallExpr>(E);
    std::string Out = mathCallSpelling(C.callee(), Options.Type);
    Out += '(';
    for (std::size_t I = 0; I < C.args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += emitExpr(*C.args()[I], Options);
    }
    Out += ')';
    return Out;
  }
  }
  assert(false && "unhandled expression kind");
  return "";
}

} // namespace an5d
