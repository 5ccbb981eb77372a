#include "ir/node.hpp"

namespace tp::ir {

const char* unaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::Neg: return "-";
    case UnaryOp::Not: return "!";
  }
  return "?";
}

const char* binaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::LogicalAnd: return "&&";
    case BinaryOp::LogicalOr: return "||";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
  }
  return "?";
}

bool isComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::Eq:
    case BinaryOp::Ne: return true;
    default: return false;
  }
}

bool isLogical(BinaryOp op) {
  return op == BinaryOp::LogicalAnd || op == BinaryOp::LogicalOr;
}

}  // namespace tp::ir
