//! The concurrency-control schemes under comparison — the paper's three
//! static ones plus this reproduction's contention-adaptive mode — and the
//! one dispatch construct, [`with_engine!`](crate::with_engine), that lets
//! an experiment body be written once against the generic
//! [`Engine`](mmdb_common::engine::Engine) trait.

/// One of the paper's three concurrency-control schemes, or the adaptive
/// mode that picks MV/O vs MV/L per transaction from live conflict
/// telemetry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Single-version locking (the baseline, "1V").
    OneV,
    /// Multiversion pessimistic locking ("MV/L").
    MvL,
    /// Multiversion optimistic validation ("MV/O").
    MvO,
    /// Contention-adaptive multiversion mode ("MV/A"): each transaction runs
    /// MV/O or MV/L depending on the engine's contention monitor. Not in the
    /// paper — the first capability of this reproduction beyond it.
    Adaptive,
}

impl Scheme {
    /// The paper's three schemes in the order it reports them, followed by
    /// the adaptive mode.
    pub const ALL: [Scheme; 4] = [Scheme::OneV, Scheme::MvL, Scheme::MvO, Scheme::Adaptive];

    /// Display label used in the result tables.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::OneV => "1V",
            Scheme::MvL => "MV/L",
            Scheme::MvO => "MV/O",
            Scheme::Adaptive => "MV/A",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Build a fresh engine of `$scheme` (lock / wait timeout `$timeout`), bind
/// a reference to it as `$engine` and evaluate `$body`, which is written
/// once, generically over `Engine`.
///
/// Engines are created per measurement point so that every data point
/// starts from an identical, unfragmented database.
#[macro_export]
macro_rules! with_engine {
    ($scheme:expr, $timeout:expr, |$engine:ident| $body:expr) => {
        match $scheme {
            $crate::Scheme::OneV => {
                let $engine = &::mmdb_onev::SvEngine::new(
                    ::mmdb_onev::SvConfig::default().with_lock_timeout($timeout),
                );
                $body
            }
            $crate::Scheme::MvL => {
                let $engine = &::mmdb_core::MvEngine::pessimistic(
                    ::mmdb_core::MvConfig::default().with_wait_timeout($timeout),
                );
                $body
            }
            $crate::Scheme::MvO => {
                let $engine = &::mmdb_core::MvEngine::optimistic(
                    ::mmdb_core::MvConfig::default().with_wait_timeout($timeout),
                );
                $body
            }
            $crate::Scheme::Adaptive => {
                let $engine = &::mmdb_core::MvEngine::adaptive(
                    ::mmdb_core::MvConfig::default().with_wait_timeout($timeout),
                );
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::engine::Engine;
    use std::time::Duration;

    #[test]
    fn with_engine_builds_the_scheme_the_label_names() {
        assert_eq!(
            Scheme::ALL.map(Scheme::label),
            ["1V", "MV/L", "MV/O", "MV/A"]
        );
        for scheme in Scheme::ALL {
            let label = with_engine!(scheme, Duration::from_millis(100), |engine| engine.label());
            assert_eq!(label, scheme.label());
        }
    }
}
