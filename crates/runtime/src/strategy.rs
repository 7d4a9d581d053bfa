//! Coordination strategy selection (§4).

/// How workers coordinate between local iterations of the parallel
/// semi-naive evaluation.
#[derive(Clone, Debug, Default)]
pub enum Strategy {
    /// Algorithm 1: a global barrier after every iteration (the paper's
    /// `Global` baseline, coordination-wise equivalent to DeALS-MC).
    Global,
    /// Stale-Synchronous Parallel: fast workers may run up to `s` local
    /// iterations ahead of the slowest active worker (§4.1).
    Ssp {
        /// Staleness bound; the paper tunes `s = 5` empirically.
        s: usize,
    },
    /// The paper's contribution: Dynamic Weight-based Strategy with
    /// on-the-fly `ω_i`/`τ_i` from queueing theory (§4.2).
    #[default]
    Dws,
}

impl Strategy {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Global => "Global",
            Strategy::Ssp { .. } => "SSP",
            Strategy::Dws => "DWS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Strategy::Global.name(), "Global");
        assert_eq!(Strategy::Ssp { s: 5 }.name(), "SSP");
        assert_eq!(Strategy::Dws.name(), "DWS");
    }

    #[test]
    fn default_is_dws() {
        assert_eq!(Strategy::default().name(), "DWS");
    }
}
