#pragma once

// Pretty-printer: renders IR back to OpenCL-like source. Primarily a
// debugging aid, but also used by round-trip tests (print → reparse →
// structurally equivalent features).

#include <string>

#include "ir/node.hpp"

namespace tp::ir {

std::string printExpr(const Expr& e);
std::string printKernel(const KernelDecl& k);

}  // namespace tp::ir
