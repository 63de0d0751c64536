//! Render-once memo for persisted artifact-map sections.
//!
//! The artifact store persists each of its content-addressed maps as one
//! compact-JSON section guarded by an FNV-1a checksum. Map entries are
//! immutable once inserted, so a section's text only changes when its
//! map gains an entry. A [`SectionMemo`] lives inside each map and keeps
//! that text and its checksum until then: every path that inserts into
//! the map calls [`SectionMemo::clear`], and a save renders only the
//! sections whose memo is empty. The memo is one copy of the section's
//! text, freed with the map that owns it.

use crate::hash::fnv1a_str;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One section's rendered text and the FNV-1a checksum of that text.
#[derive(Debug, PartialEq, Eq)]
pub struct RenderedSection {
    pub text: String,
    pub checksum: u64,
}

/// The rendered form of one map, kept until the map changes.
///
/// Reads go through `&self` (a save borrows the store immutably), so the
/// slot sits behind a lock; invalidation needs `&mut self`, which only
/// the owning map's insert paths hold.
#[derive(Debug, Default)]
pub struct SectionMemo {
    rendered: Mutex<Option<Arc<RenderedSection>>>,
}

impl Clone for SectionMemo {
    /// A cloned map holds the same entries, so it shares the same text.
    fn clone(&self) -> SectionMemo {
        SectionMemo {
            rendered: Mutex::new(self.slot().clone()),
        }
    }
}

impl SectionMemo {
    pub fn new() -> SectionMemo {
        SectionMemo::default()
    }

    /// The memoized section, or `render`'s text (checksummed and kept)
    /// when the memo is empty. A failed render leaves the memo empty.
    pub fn get_or_render<E>(
        &self,
        render: impl FnOnce() -> Result<String, E>,
    ) -> Result<Arc<RenderedSection>, E> {
        let mut slot = self.slot();
        if let Some(rendered) = slot.as_ref() {
            return Ok(Arc::clone(rendered));
        }
        let text = render()?;
        let rendered = Arc::new(RenderedSection {
            checksum: fnv1a_str(&text),
            text,
        });
        *slot = Some(Arc::clone(&rendered));
        Ok(rendered)
    }

    /// Forget the rendered text; the owning map calls this on every
    /// insert.
    pub fn clear(&mut self) {
        *self
            .rendered
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn slot(&self) -> MutexGuard<'_, Option<Arc<RenderedSection>>> {
        // A render that panicked left the slot empty, which is a valid
        // state: recover the guard rather than propagate the poison.
        self.rendered.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render through `memo`, counting calls of the renderer in `calls`.
    fn get(memo: &SectionMemo, text: &str, calls: &mut usize) -> Arc<RenderedSection> {
        memo.get_or_render(|| -> Result<String, ()> {
            *calls += 1;
            Ok(text.to_string())
        })
        .unwrap()
    }

    #[test]
    fn renders_once_until_cleared() {
        let mut memo = SectionMemo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let got = get(&memo, "{\"a\":1}", &mut calls);
            assert_eq!(got.text, "{\"a\":1}");
            assert_eq!(got.checksum, fnv1a_str("{\"a\":1}"));
        }
        assert_eq!(calls, 1);
        memo.clear();
        assert_eq!(get(&memo, "{}", &mut calls).text, "{}");
        assert_eq!(calls, 2);
    }

    #[test]
    fn failed_render_keeps_the_memo_empty() {
        let memo = SectionMemo::new();
        assert_eq!(memo.get_or_render(|| Err::<String, _>("boom")), Err("boom"));
        let mut calls = 0;
        assert_eq!(get(&memo, "x", &mut calls).text, "x");
        assert_eq!(calls, 1);
    }

    #[test]
    fn clones_share_the_text_but_clear_independently() {
        let mut calls = 0;
        let memo = SectionMemo::new();
        get(&memo, "x", &mut calls);
        let mut copy = memo.clone();
        assert_eq!(get(&copy, "unused", &mut calls).text, "x");
        copy.clear();
        assert_eq!(get(&memo, "unused", &mut calls).text, "x");
        assert_eq!(get(&copy, "y", &mut calls).text, "y");
        assert_eq!(calls, 2);
    }
}
