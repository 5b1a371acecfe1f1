//! Correctness accounting: every checked output is an attempted op, and
//! every mismatch a failed one.

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one checked outcome; a failure is reported on stderr with
    /// `what` so the run says which output broke.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Byte-for-byte comparison of an output against its reference.
    pub fn same_bytes(&mut self, got: &[u8], want: &[u8], what: &str) -> bool {
        self.check(got == want, || {
            let at = got
                .iter()
                .zip(want)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            format!(
                "{what}: {} bytes vs {} expected, first difference at byte {at}",
                got.len(),
                want.len()
            )
        })
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_byte_is_a_failed_op() {
        let reference = br#"{"apps": [1, 2, 3]}"#.to_vec();
        let mut tally = Tally::default();
        assert!(tally.same_bytes(&reference.clone(), &reference, "identical"));
        let mut flipped = reference.clone();
        flipped[9] ^= 0x01;
        assert!(!tally.same_bytes(&flipped, &reference, "flipped"));
        assert!(!tally.same_bytes(&reference[..5], &reference, "truncated"));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
