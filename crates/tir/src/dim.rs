//! Constant and symbolic dimensions (§5.3, Symbolic Shape Execution).
//!
//! Parameterized kernels replace constant loop bounds and strides with
//! symbolic placeholders (TVM's `te.var`) that become integer kernel
//! arguments; at runtime a [`Binding`] maps each symbol to the concrete layer
//! dimensions so one kernel can be time-multiplexed across layers (§4.9).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// A name in the IR: a loop variable, symbolic dimension or buffer. A
/// literal such as `"ff"` borrows; only a generated name, such as the
/// `{var}_o` of a split loop, owns its string.
pub type Name = Cow<'static, str>;

/// A dimension: compile-time constant or symbolic (`te.var`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Known at compile time — folded into generated code.
    Const(usize),
    /// Symbolic — becomes an integer kernel argument.
    Sym(Name),
}

impl Dim {
    /// Symbolic dimension with the given name.
    pub fn sym(name: impl Into<Name>) -> Dim {
        Dim::Sym(name.into())
    }

    /// The constant value, if any.
    pub fn as_const(&self) -> Option<usize> {
        match self {
            Dim::Const(n) => Some(*n),
            Dim::Sym(_) => None,
        }
    }

    /// Resolves against a binding.
    ///
    /// # Panics
    /// Panics if the symbol is unbound.
    pub fn resolve(&self, b: &Binding) -> usize {
        match self {
            Dim::Const(n) => *n,
            Dim::Sym(s) => b.get(s),
        }
    }
}

impl From<usize> for Dim {
    fn from(n: usize) -> Dim {
        Dim::Const(n)
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Const(n) => write!(f, "{n}"),
            Dim::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// Runtime values for symbolic dimensions — the integer kernel arguments set
/// by the host when re-using a parameterized kernel for a specific layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Binding(HashMap<Name, usize>);

impl Binding {
    /// Empty binding (sufficient for fully-constant kernels).
    pub fn empty() -> Self {
        Binding::default()
    }

    /// Builds a binding from `(symbol, value)` pairs.
    pub fn of(pairs: &[(&'static str, usize)]) -> Self {
        Binding(pairs.iter().map(|&(k, v)| (Name::from(k), v)).collect())
    }

    /// Adds/overwrites a symbol.
    pub fn set(&mut self, name: impl Into<Name>, value: usize) -> &mut Self {
        self.0.insert(name.into(), value);
        self
    }

    /// Looks a symbol up.
    ///
    /// # Panics
    /// Panics if unbound (an unset kernel argument is a host-code bug).
    pub fn get(&self, name: &str) -> usize {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("unbound symbolic dimension `{name}`"))
    }

    /// Looks a symbol up, returning `None` if unbound.
    pub fn try_get(&self, name: &str) -> Option<usize> {
        self.0.get(name).copied()
    }

    /// Iterates over `(symbol, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.0.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no symbols are bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_dims_resolve_without_binding() {
        assert_eq!(Dim::Const(7).resolve(&Binding::empty()), 7);
        assert_eq!(Dim::Const(7).as_const(), Some(7));
    }

    #[test]
    fn symbolic_dims_resolve_through_binding() {
        let d = Dim::sym("ff");
        assert_eq!(d.as_const(), None);
        let b = Binding::of(&[("ff", 128)]);
        assert_eq!(d.resolve(&b), 128);
    }

    #[test]
    #[should_panic(expected = "unbound symbolic dimension")]
    fn unbound_symbol_panics() {
        Dim::sym("rc").resolve(&Binding::empty());
    }

    #[test]
    fn display() {
        assert_eq!(Dim::Const(3).to_string(), "3");
        assert_eq!(Dim::sym("xx").to_string(), "xx");
    }
}
