#pragma once

// Symbolic work expressions.
//
// Static feature extraction produces per-work-item operation counts that may
// depend on problem-size parameters (e.g. matmul executes 2*K fused
// multiply-adds per work item, where K is a kernel argument). We represent
// such counts as multivariate polynomials with double coefficients over
// named parameters. At launch time the runtime binds the parameters to the
// actual problem size, turning the static feature into a problem-size
// dependent *runtime feature* — exactly the static/dynamic feature split the
// paper describes.

#include <map>
#include <string>
#include <vector>

namespace tp::ir {

/// Sorted list of variable names (repetition encodes powers): {"K","K"} = K^2.
using Monomial = std::vector<std::string>;

class WorkExpr {
public:
  WorkExpr() = default;

  static WorkExpr constant(double c);
  static WorkExpr variable(const std::string& name);

  bool isZero() const noexcept { return terms_.empty(); }
  bool isConstant() const noexcept;
  /// Constant term (0 if absent).
  double constantTerm() const;

  WorkExpr operator+(const WorkExpr& o) const;
  WorkExpr operator-(const WorkExpr& o) const;
  WorkExpr operator*(const WorkExpr& o) const;
  WorkExpr operator*(double scale) const;
  WorkExpr& operator+=(const WorkExpr& o);

  bool operator==(const WorkExpr& o) const { return terms_ == o.terms_; }

  /// Evaluate with parameter bindings. Unknown parameters fall back to
  /// `defaultValue` (used for loops whose bounds are not size parameters).
  double eval(const std::map<std::string, double>& bindings,
              double defaultValue = 16.0) const;

  /// Names of all parameters appearing in the polynomial.
  std::vector<std::string> parameters() const;

  /// Highest total degree of any monomial (0 for constants).
  int degree() const;

  /// Highest power of `var` in any monomial.
  int degreeIn(const std::string& var) const;

  /// For polynomials linear in `var`: the coefficient polynomial (sum of all
  /// terms containing `var` exactly once, with that occurrence removed).
  WorkExpr coefficientOf(const std::string& var) const;

  /// Sum of all terms NOT containing `var`.
  WorkExpr without(const std::string& var) const;

  /// True if any monomial mentions `var`.
  bool contains(const std::string& var) const;

  /// Human-readable form, e.g. "2*K + 3" (deterministic term order).
  std::string toString() const;

  /// The canonical terms, in the order eval() sums them.
  const std::map<Monomial, double>& terms() const noexcept { return terms_; }

private:
  void add(const Monomial& m, double coeff);

  // Canonical map from sorted monomial to coefficient; zero coefficients are
  // pruned eagerly so isZero()/operator== behave structurally.
  std::map<Monomial, double> terms_;
};

inline WorkExpr operator*(double scale, const WorkExpr& e) { return e * scale; }

}  // namespace tp::ir
