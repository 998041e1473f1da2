//! Successor windows — the closed form behind every `r`-fold sieve.
//!
//! Range partitions, tag slots and histogram buckets replicate the same
//! way: a key maps to one position of a ring of `n`, and `min(r, n)`
//! consecutive positions own it (successor-list replication). A
//! [`Window`] is that run of positions. Membership is one modular
//! comparison and the members are listed without allocating, so a
//! coordinator names a key's owners in O(r) instead of evaluating every
//! node's sieve.

/// `min(r, n)` consecutive positions `start, start + 1, …` (mod `n`) of a
/// ring of `n` positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    start: u64,
    len: u64,
    n: u64,
}

impl Window {
    /// The window of `min(r, n)` positions starting at `start`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `start >= n`.
    #[must_use]
    pub fn new(start: u64, n: u64, r: u32) -> Self {
        assert!(n > 0, "ring size must be positive");
        assert!(start < n, "window start out of range");
        Window { start, len: u64::from(r).min(n), n }
    }

    /// The window of `min(r, n)` positions whose last position is `last`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `last >= n`.
    #[must_use]
    pub fn ending_at(last: u64, n: u64, r: u32) -> Self {
        let w = Window::new(last, n, r);
        let back = w.len.saturating_sub(1);
        let start = if last >= back { last - back } else { n - (back - last) };
        Window { start, ..w }
    }

    /// Whether position `x` (in `0..n`) lies in the window:
    /// `(x − start) mod n < min(r, n)`.
    #[must_use]
    pub fn contains(&self, x: u64) -> bool {
        let offset = if x >= self.start { x - self.start } else { self.n - (self.start - x) };
        offset < self.len
    }

    /// The positions in ring order: `start` first, wrapping past `n − 1`.
    pub fn ring_order(&self) -> impl Iterator<Item = u64> {
        let Window { start, len, n } = *self;
        let to_end = n - start;
        (0..len).map(move |k| if k < to_end { start + k } else { k - to_end })
    }

    /// The positions in ascending order (the wrapped head first).
    pub fn ascending(&self) -> impl Iterator<Item = u64> {
        let Window { start, len, n } = *self;
        let wrapped = len.saturating_sub(n - start);
        (0..wrapped).chain(start..start + (len - wrapped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_the_successor_list() {
        for n in 1..12u64 {
            for r in 0..14u32 {
                for start in 0..n {
                    let w = Window::new(start, n, r);
                    let listed: Vec<u64> =
                        (0..u64::from(r).min(n)).map(|k| (start + k) % n).collect();
                    assert_eq!(w.ring_order().collect::<Vec<_>>(), listed);
                    let mut ascending: Vec<u64> = w.ascending().collect();
                    assert!(ascending.windows(2).all(|p| p[0] < p[1]), "{ascending:?}");
                    ascending.sort_unstable();
                    let mut sorted = listed.clone();
                    sorted.sort_unstable();
                    assert_eq!(ascending, sorted);
                    for x in 0..n {
                        assert_eq!(w.contains(x), listed.contains(&x), "n {n} r {r} start {start}");
                    }
                }
            }
        }
    }

    #[test]
    fn ending_at_is_the_mirror_of_new() {
        for n in 1..10u64 {
            for r in 1..12u32 {
                for last in 0..n {
                    let w = Window::ending_at(last, n, r);
                    assert_eq!(w.ring_order().last(), Some(last));
                    for i in 0..n {
                        assert_eq!(w.contains(i), Window::new(i, n, r).contains(last));
                    }
                }
            }
        }
    }

    #[test]
    fn huge_rings_do_not_overflow() {
        let n = u64::MAX;
        let w = Window::ending_at(1, n, 4);
        assert_eq!(w.ascending().collect::<Vec<_>>(), vec![0, 1, n - 2, n - 1]);
        assert_eq!(w.ring_order().collect::<Vec<_>>(), vec![n - 2, n - 1, 0, 1]);
        assert!(w.contains(n - 1) && !w.contains(2) && !w.contains(n - 3));
    }

    #[test]
    #[should_panic(expected = "window start out of range")]
    fn start_outside_the_ring_panics() {
        let _ = Window::new(5, 5, 1);
    }
}
