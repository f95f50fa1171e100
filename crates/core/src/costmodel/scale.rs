//! Rescaling measured volumes to paper size.

/// Multipliers from the experiment's scale to the paper's.
///
/// Volumes derived from `T` (database tuples shipped, `T'` rows) scale by
/// `t`; volumes derived from `L` (scan bytes, shuffled tuples, DB-side
/// ingestion) scale by `l`; Bloom-filter and key-set sizes scale with the
/// join-key universe, `keys`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFactors {
    pub t: f64,
    pub l: f64,
    pub keys: f64,
}

/// The paper's dataset sizes (§5, *Dataset*).
pub const PAPER_T_ROWS: f64 = 1.6e9;
pub const PAPER_L_ROWS: f64 = 15.0e9;
pub const PAPER_KEYS: f64 = 16.0e6;

impl ScaleFactors {
    /// No rescaling — report times for the volumes as measured.
    pub fn identity() -> ScaleFactors {
        ScaleFactors {
            t: 1.0,
            l: 1.0,
            keys: 1.0,
        }
    }

    /// Factors mapping an experiment with the given row/key counts onto the
    /// paper's 1.6 B-row `T` / 15 B-row `L` / 16 M-key dataset.
    pub fn to_paper(t_rows: usize, l_rows: usize, num_keys: usize) -> ScaleFactors {
        ScaleFactors {
            t: PAPER_T_ROWS / t_rows.max(1) as f64,
            l: PAPER_L_ROWS / l_rows.max(1) as f64,
            keys: PAPER_KEYS / num_keys.max(1) as f64,
        }
    }
}
