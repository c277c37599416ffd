//! The per-peer chunk store: what a peer holds and can serve.

use std::collections::BTreeMap;
use std::fmt;

use tvm::ModuleBlob;

use crate::chunk::{BlobId, ChunkLayout};

/// Why a blob could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The store has never seen this blob.
    UnknownBlob(BlobId),
    /// Chunks are still missing.
    Incomplete { blob: BlobId, missing: u32 },
    /// All chunks present, but the reassembled bytes do not hash to the
    /// advertised id — a corrupt or poisoned transfer.
    HashMismatch { expected: BlobId, actual: BlobId },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownBlob(b) => write!(f, "unknown blob {b}"),
            StoreError::Incomplete { blob, missing } => {
                write!(f, "blob {blob} still missing {missing} chunk(s)")
            }
            StoreError::HashMismatch { expected, actual } => {
                write!(f, "hash mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Lifetime statistics of one [`ChunkStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub chunks_inserted: u64,
    pub bytes_inserted: u64,
    /// Successful verified assemblies.
    pub assembles: u64,
    /// Assemblies rejected at hash verification.
    pub verify_failures: u64,
    /// Bytes run through the content hash by assembly: all of a blob
    /// [`ChunkStore::assemble`] rebuilt, none of one that the check of
    /// [`ChunkStore::assemble_known`] vouched for.
    pub bytes_hashed: u64,
    pub releases: u64,
}

struct BlobEntry {
    layout: ChunkLayout,
    chunks: BTreeMap<u32, Vec<u8>>,
}

impl BlobEntry {
    fn is_complete(&self) -> bool {
        self.chunks.len() as u32 == self.layout.count()
    }
}

/// A peer's resident chunk set, indexed by content hash.
///
/// Chunks accumulate via [`ChunkStore::insert_chunk`] (swarm download) or
/// [`ChunkStore::seed_blob`] (the peer already holds the whole blob and
/// offers it to others). [`ChunkStore::assemble`] re-derives the content
/// hash from the reassembled bytes and refuses to hand out a blob whose
/// bytes do not match its address. [`ChunkStore::assemble_known`] lets the
/// caller skip that hash for bytes it can show are a blob already verified
/// under the same address; any other bytes are hashed just the same.
pub struct ChunkStore {
    chunk_bytes: u64,
    blobs: BTreeMap<BlobId, BlobEntry>,
    stats: StoreStats,
}

impl ChunkStore {
    /// A store that chunks blobs into `chunk_bytes`-sized pieces.
    pub fn new(chunk_bytes: u64) -> Self {
        assert!(chunk_bytes >= 1);
        ChunkStore {
            chunk_bytes,
            blobs: BTreeMap::new(),
            stats: StoreStats::default(),
        }
    }

    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// The layout this store uses for a blob of `blob_len` bytes.
    pub fn layout_for(&self, blob_len: u64) -> ChunkLayout {
        ChunkLayout::new(blob_len, self.chunk_bytes)
    }

    /// Seed a complete blob the peer already holds (e.g. just fetched and
    /// verified): splits it into chunks so they can be served onward.
    /// Returns the blob's content address.
    pub fn seed_blob(&mut self, blob: &ModuleBlob) -> BlobId {
        let id = BlobId::of_blob(blob);
        let layout = self.layout_for(blob.bytes.len() as u64);
        let entry = self.blobs.entry(id).or_insert_with(|| BlobEntry {
            layout,
            chunks: BTreeMap::new(),
        });
        for i in 0..layout.count() {
            if let std::collections::btree_map::Entry::Vacant(slot) = entry.chunks.entry(i) {
                let piece = layout.slice(&blob.bytes, i).to_vec();
                self.stats.chunks_inserted += 1;
                self.stats.bytes_inserted += piece.len() as u64;
                slot.insert(piece);
            }
        }
        id
    }

    /// Store one downloaded chunk. Creates the blob entry on first use.
    /// Returns `false` if the chunk was already present (duplicate
    /// delivery) or its length does not match the layout.
    pub fn insert_chunk(&mut self, id: BlobId, blob_len: u64, index: u32, bytes: Vec<u8>) -> bool {
        let layout = self.layout_for(blob_len);
        if index >= layout.count() || bytes.len() as u64 != layout.size(index) {
            return false;
        }
        let entry = self.blobs.entry(id).or_insert_with(|| BlobEntry {
            layout,
            chunks: BTreeMap::new(),
        });
        if entry.chunks.contains_key(&index) {
            return false;
        }
        self.stats.chunks_inserted += 1;
        self.stats.bytes_inserted += bytes.len() as u64;
        entry.chunks.insert(index, bytes);
        true
    }

    pub fn has_chunk(&self, id: BlobId, index: u32) -> bool {
        self.blobs
            .get(&id)
            .is_some_and(|e| e.chunks.contains_key(&index))
    }

    /// A held chunk's bytes, for serving to another peer.
    pub fn chunk(&self, id: BlobId, index: u32) -> Option<&[u8]> {
        self.blobs
            .get(&id)
            .and_then(|e| e.chunks.get(&index))
            .map(Vec::as_slice)
    }

    /// Chunk indices still missing for a `blob_len`-byte blob (all of
    /// them if the store has never seen it).
    pub fn missing(&self, id: BlobId, blob_len: u64) -> Vec<u32> {
        let layout = self.layout_for(blob_len);
        match self.blobs.get(&id) {
            Some(e) => (0..layout.count())
                .filter(|i| !e.chunks.contains_key(i))
                .collect(),
            None => (0..layout.count()).collect(),
        }
    }

    pub fn is_complete(&self, id: BlobId) -> bool {
        self.blobs.get(&id).is_some_and(BlobEntry::is_complete)
    }

    /// Layout of a blob the store has (any) chunks for.
    pub fn layout_of(&self, id: BlobId) -> Option<ChunkLayout> {
        self.blobs.get(&id).map(|e| e.layout)
    }

    /// Reassemble a complete blob and **verify its content hash**. On
    /// mismatch the blob is rejected (`StoreError::HashMismatch`) and the
    /// verification failure is counted; the caller decides whether to
    /// discard the chunks and re-fetch.
    pub fn assemble(&mut self, id: BlobId) -> Result<ModuleBlob, StoreError> {
        self.assemble_known(id, |_| false)
    }

    /// [`ChunkStore::assemble`], except that reassembled bytes for which
    /// `known` returns `true` count as verified without being hashed.
    /// `known` must return `true` only for bytes already proven to hash to
    /// `id` — equal, byte for byte, to a blob that passed this check
    /// before — so the result is the one `assemble` would give.
    pub fn assemble_known(
        &mut self,
        id: BlobId,
        known: impl FnOnce(&[u8]) -> bool,
    ) -> Result<ModuleBlob, StoreError> {
        let entry = self.blobs.get(&id).ok_or(StoreError::UnknownBlob(id))?;
        if !entry.is_complete() {
            return Err(StoreError::Incomplete {
                blob: id,
                missing: entry.layout.count() - entry.chunks.len() as u32,
            });
        }
        let mut bytes = Vec::with_capacity(entry.layout.blob_len as usize);
        for piece in entry.chunks.values() {
            bytes.extend_from_slice(piece);
        }
        if !known(&bytes) {
            self.stats.bytes_hashed += bytes.len() as u64;
            let actual = BlobId::of(&bytes);
            if actual != id {
                self.stats.verify_failures += 1;
                return Err(StoreError::HashMismatch {
                    expected: id,
                    actual,
                });
            }
        }
        self.stats.assembles += 1;
        Ok(ModuleBlob { bytes, hash: id.0 })
    }

    /// Drop every chunk of a blob ("selectively download and release").
    pub fn release(&mut self, id: BlobId) -> bool {
        let gone = self.blobs.remove(&id).is_some();
        if gone {
            self.stats.releases += 1;
        }
        gone
    }

    /// Fault injection for tests: flip one byte of a held chunk, modelling
    /// a corrupt or malicious provider. Returns `false` if the chunk is
    /// not held.
    pub fn corrupt_chunk(&mut self, id: BlobId, index: u32) -> bool {
        match self
            .blobs
            .get_mut(&id)
            .and_then(|e| e.chunks.get_mut(&index))
        {
            Some(piece) if !piece.is_empty() => {
                piece[0] ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// Total bytes resident across all blobs.
    pub fn resident_bytes(&self) -> u64 {
        self.blobs
            .values()
            .flat_map(|e| e.chunks.values())
            .map(|c| c.len() as u64)
            .sum()
    }

    /// Number of blobs with at least one chunk resident.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_blob(pairs: usize) -> ModuleBlob {
        let mut src = String::from(".module T 1 0 0\n.func main 0\n");
        for _ in 0..pairs {
            src.push_str(" push 1\n pop\n");
        }
        src.push_str(" halt\n");
        tvm::asm::assemble(&src).unwrap().to_blob()
    }

    #[test]
    fn seed_then_assemble_round_trips() {
        let blob = test_blob(200);
        let mut s = ChunkStore::new(128);
        let id = s.seed_blob(&blob);
        assert!(s.is_complete(id));
        assert!(s.missing(id, blob.bytes.len() as u64).is_empty());
        let out = s.assemble(id).unwrap();
        assert_eq!(out.bytes, blob.bytes);
        assert!(out.integrity_ok());
        assert_eq!(s.stats().verify_failures, 0);
    }

    #[test]
    fn chunkwise_transfer_completes_and_verifies() {
        let blob = test_blob(300);
        let len = blob.bytes.len() as u64;
        let mut provider = ChunkStore::new(256);
        let id = provider.seed_blob(&blob);
        let mut fetcher = ChunkStore::new(256);
        let missing = fetcher.missing(id, len);
        assert_eq!(missing.len() as u32, provider.layout_for(len).count());
        for i in missing {
            let piece = provider.chunk(id, i).unwrap().to_vec();
            assert!(fetcher.insert_chunk(id, len, i, piece));
        }
        assert!(fetcher.is_complete(id));
        assert_eq!(fetcher.assemble(id).unwrap().bytes, blob.bytes);
    }

    #[test]
    fn corrupted_chunk_is_rejected_at_verification() {
        let blob = test_blob(300);
        let mut s = ChunkStore::new(256);
        let id = s.seed_blob(&blob);
        assert!(s.corrupt_chunk(id, 1));
        let err = s.assemble(id).unwrap_err();
        assert!(matches!(err, StoreError::HashMismatch { expected, .. } if expected == id));
        assert_eq!(s.stats().verify_failures, 1);
        // The poisoned blob can be dropped and refetched.
        assert!(s.release(id));
        assert!(!s.is_complete(id));
    }

    #[test]
    fn only_vouched_bytes_skip_the_hash() {
        let blob = test_blob(300);
        let len = blob.bytes.len() as u64;
        let mut s = ChunkStore::new(256);
        let id = s.seed_blob(&blob);
        s.assemble(id).unwrap();
        assert_eq!(s.stats().bytes_hashed, len);
        let good = blob.bytes.clone();
        let out = s.assemble_known(id, |b| b == good.as_slice()).unwrap();
        assert_eq!(out.bytes, blob.bytes);
        assert_eq!(s.stats().bytes_hashed, len, "vouched bytes are not hashed");
        // A corrupt chunk makes the bytes differ from the known ones: they
        // are hashed in full and refused.
        assert!(s.corrupt_chunk(id, 1));
        let err = s.assemble_known(id, |b| b == good.as_slice()).unwrap_err();
        assert!(matches!(err, StoreError::HashMismatch { .. }));
        let st = s.stats();
        assert_eq!(
            (st.bytes_hashed, st.assembles, st.verify_failures),
            (2 * len, 2, 1)
        );
    }

    #[test]
    fn incomplete_blob_does_not_assemble() {
        let blob = test_blob(300);
        let len = blob.bytes.len() as u64;
        let mut provider = ChunkStore::new(256);
        let id = provider.seed_blob(&blob);
        let mut fetcher = ChunkStore::new(256);
        fetcher.insert_chunk(id, len, 0, provider.chunk(id, 0).unwrap().to_vec());
        assert!(matches!(
            fetcher.assemble(id),
            Err(StoreError::Incomplete { .. })
        ));
        assert!(matches!(
            ChunkStore::new(256).assemble(id),
            Err(StoreError::UnknownBlob(_))
        ));
    }

    #[test]
    fn duplicate_and_misfit_chunks_are_refused() {
        let blob = test_blob(100);
        let len = blob.bytes.len() as u64;
        let mut provider = ChunkStore::new(64);
        let id = provider.seed_blob(&blob);
        let mut fetcher = ChunkStore::new(64);
        let piece = provider.chunk(id, 0).unwrap().to_vec();
        assert!(fetcher.insert_chunk(id, len, 0, piece.clone()));
        assert!(!fetcher.insert_chunk(id, len, 0, piece), "duplicate");
        assert!(!fetcher.insert_chunk(id, len, 1, vec![0u8; 3]), "bad size");
        assert!(!fetcher.insert_chunk(id, len, 9_999, vec![]), "bad index");
        let st = fetcher.stats();
        assert_eq!(st.chunks_inserted, 1);
    }

    #[test]
    fn resident_bytes_track_seed_and_release() {
        let blob = test_blob(150);
        let mut s = ChunkStore::new(100);
        let id = s.seed_blob(&blob);
        assert_eq!(s.resident_bytes(), blob.bytes.len() as u64);
        assert_eq!(s.len(), 1);
        // Seeding again is idempotent.
        s.seed_blob(&blob);
        assert_eq!(s.resident_bytes(), blob.bytes.len() as u64);
        s.release(id);
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
    }
}
