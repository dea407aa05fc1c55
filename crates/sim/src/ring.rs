//! A fixed ring of the last `n` values pushed: the per-instruction windows (ROB, commit
//! width, recently touched pages) as one array and a head index, with no per-push length
//! bookkeeping or reallocation.

/// The last `len` values pushed (at least one), oldest first; slots not yet pushed hold
/// the initial value.
pub(crate) struct Ring {
    slots: Box<[u64]>,
    /// Index of the oldest value, which the next push overwrites.
    head: usize,
}

impl Ring {
    pub(crate) fn new(len: usize, initial: u64) -> Self {
        Self {
            slots: vec![initial; len.max(1)].into_boxed_slice(),
            head: 0,
        }
    }

    #[inline]
    pub(crate) fn oldest(&self) -> u64 {
        self.slots[self.head]
    }

    /// Overwrites the oldest value with `value`, which becomes the newest.
    #[inline]
    pub(crate) fn push(&mut self, value: u64) {
        self.slots[self.head] = value;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
    }
}
