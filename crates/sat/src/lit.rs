//! Boolean variables, literals, and the three-valued assignment domain.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index.
///
/// Variables are created by [`Solver::new_var`](crate::Solver::new_var) and
/// are valid only for the solver that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The largest variable index: both literal codes of every variable
    /// fit a `u32`.
    pub(crate) const MAX_INDEX: usize = u32::MAX as usize / 2 - 1;

    /// Creates a variable from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX / 2` or more.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        assert!(
            index <= Var::MAX_INDEX,
            "variable index {index} out of range"
        );
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + sign` where `sign == 0` means the positive phase.
/// The encoding makes negation a single XOR and allows literals to index
/// watch lists directly via [`Lit::code`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var` with the given phase
    /// (`true` = positive, i.e. the literal is satisfied when the variable
    /// is assigned `true`).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | (!positive) as u32)
    }

    /// Reconstructs a literal from its dense code (inverse of [`Lit::code`]).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Returns the dense code of this literal, suitable for indexing.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is the positive literal of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The value the underlying variable must take to satisfy this literal.
    #[inline]
    pub fn phase(self) -> bool {
        self.is_positive()
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var().0 + 1)
        } else {
            write!(f, "-{}", self.var().0 + 1)
        }
    }
}

/// Three-valued assignment domain used while the solver is running.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a concrete boolean into the lifted domain.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns `Some(bool)` when assigned, `None` when undefined.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// XOR with a concrete boolean; `Undef` is absorbing.
    #[inline]
    pub fn xor(self, flip: bool) -> LBool {
        match (self, flip) {
            (LBool::Undef, _) => LBool::Undef,
            (x, false) => x,
            (LBool::True, true) => LBool::False,
            (LBool::False, true) => LBool::True,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var::from_index(7);
        let pos = v.positive();
        let neg = v.negative();
        assert_eq!(pos.var(), v);
        assert_eq!(neg.var(), v);
        assert!(pos.is_positive());
        assert!(!neg.is_positive());
        assert_eq!(!pos, neg);
        assert_eq!(!neg, pos);
        assert_eq!(Lit::from_code(pos.code()), pos);
    }

    #[test]
    fn lbool_xor_truth_table() {
        assert_eq!(LBool::True.xor(true), LBool::False);
        assert_eq!(LBool::True.xor(false), LBool::True);
        assert_eq!(LBool::False.xor(true), LBool::True);
        assert_eq!(LBool::Undef.xor(true), LBool::Undef);
    }

    #[test]
    fn display_uses_dimacs_convention() {
        let v = Var::from_index(0);
        assert_eq!(v.positive().to_string(), "1");
        assert_eq!(v.negative().to_string(), "-1");
    }
}
