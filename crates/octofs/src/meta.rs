//! The metadata store and its cost model.
//!
//! A deliberately Octopus-flavoured design: a flat inode table plus
//! per-directory entry maps, all in memory. Costs reflect the paper's
//! observation (§4.1) that update operations "require more complicated
//! processing in the file system" — inode allocation, directory
//! insertion, journaling — while `Stat`/`Readdir` are cheap lookups whose
//! end-to-end rate is dominated by the RPC layer.

use simcore::DetHashMap;
use simcore::SimDuration;
use std::collections::BTreeSet;

/// Metadata operation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path already exists (Mknod).
    Exists,
    /// Path does not exist.
    NotFound,
    /// Malformed path.
    BadPath,
}

impl FsError {
    /// Wire code for [`crate::proto::FsResponse::Err`].
    pub fn code(self) -> u8 {
        match self {
            FsError::Exists => 1,
            FsError::NotFound => 2,
            FsError::BadPath => 3,
        }
    }
}

/// File attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: u64,
    /// File size in bytes.
    pub size: u64,
    /// Modification stamp (logical: the creating op's counter value).
    pub mtime: u64,
}

/// Per-operation CPU costs of the metadata server.
#[derive(Clone, Copy, Debug)]
pub struct MetaCosts {
    /// `Mknod`: inode allocation + dentry insert + journal append.
    pub mknod: SimDuration,
    /// `Rmnod`: dentry erase + inode free + journal append.
    pub rmnod: SimDuration,
    /// `Stat`: hash lookups only.
    pub stat: SimDuration,
    /// `Readdir`: base cost plus a per-returned-entry cost.
    pub readdir_base: SimDuration,
    /// Extra `Readdir` cost per listed entry.
    pub readdir_per_entry: SimDuration,
}

impl Default for MetaCosts {
    fn default() -> Self {
        MetaCosts {
            mknod: SimDuration::nanos(7_500),
            rmnod: SimDuration::nanos(6_500),
            stat: SimDuration::nanos(1_200),
            readdir_base: SimDuration::nanos(1_400),
            readdir_per_entry: SimDuration::nanos(25),
        }
    }
}

/// The in-memory metadata server state.
pub struct MetaStore {
    inodes: DetHashMap<u64, Inode>,
    /// (dir path → name → ino).
    dentries: DetHashMap<String, DetHashMap<String, u64>>,
    /// (dir path → sorted names) for deterministic listings.
    listing: DetHashMap<String, BTreeSet<String>>,
    next_ino: u64,
    /// Cost model.
    pub costs: MetaCosts,
    /// Cap on entries returned per `Readdir` page.
    pub readdir_page: usize,
}

fn split_path(path: &str) -> Option<(&str, &str)> {
    if !path.starts_with('/') || path.ends_with('/') {
        return None;
    }
    let idx = path.rfind('/')?;
    let (dir, name) = path.split_at(idx);
    let dir = if dir.is_empty() { "/" } else { dir };
    let name = &name[1..];
    if name.is_empty() {
        None
    } else {
        Some((dir, name))
    }
}

impl Default for MetaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MetaStore {
            inodes: DetHashMap::default(),
            dentries: DetHashMap::default(),
            listing: DetHashMap::default(),
            next_ino: 2,
            costs: MetaCosts::default(),
            readdir_page: 32,
        }
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.inodes.len()
    }

    /// Creates `path`, stamping its mtime with `stamp` — a logical
    /// modification counter (the handler passes its op count), not
    /// simulated time. Returns the cost alongside the result so callers
    /// charge the worker even for failed operations.
    pub fn mknod(&mut self, path: &str, stamp: u64) -> (Result<u64, FsError>, SimDuration) {
        let cost = self.costs.mknod;
        let Some((dir, name)) = split_path(path) else {
            return (Err(FsError::BadPath), cost);
        };
        let dent = self.dentries.entry(dir.to_string()).or_default();
        if dent.contains_key(name) {
            return (Err(FsError::Exists), cost);
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        dent.insert(name.to_string(), ino);
        self.listing
            .entry(dir.to_string())
            .or_default()
            .insert(name.to_string());
        self.inodes.insert(
            ino,
            Inode {
                ino,
                size: 0,
                mtime: stamp,
            },
        );
        (Ok(ino), cost)
    }

    /// Removes `path`.
    pub fn rmnod(&mut self, path: &str) -> (Result<(), FsError>, SimDuration) {
        let cost = self.costs.rmnod;
        let Some((dir, name)) = split_path(path) else {
            return (Err(FsError::BadPath), cost);
        };
        let Some(dent) = self.dentries.get_mut(dir) else {
            return (Err(FsError::NotFound), cost);
        };
        let Some(ino) = dent.remove(name) else {
            return (Err(FsError::NotFound), cost);
        };
        self.inodes.remove(&ino);
        if let Some(l) = self.listing.get_mut(dir) {
            l.remove(name);
        }
        (Ok(()), cost)
    }

    /// Looks up `path`.
    pub fn stat(&self, path: &str) -> (Result<Inode, FsError>, SimDuration) {
        let cost = self.costs.stat;
        let Some((dir, name)) = split_path(path) else {
            return (Err(FsError::BadPath), cost);
        };
        let r = self
            .dentries
            .get(dir)
            .and_then(|d| d.get(name))
            .and_then(|ino| self.inodes.get(ino))
            .copied()
            .ok_or(FsError::NotFound);
        (r, cost)
    }

    /// Lists a directory (first page), charging per returned entry.
    pub fn readdir(&self, dir: &str) -> (Result<Vec<String>, FsError>, SimDuration) {
        match self.listing.get(dir) {
            Some(names) => {
                let page: Vec<String> = names.iter().take(self.readdir_page).cloned().collect();
                let cost =
                    self.costs.readdir_base + self.costs.readdir_per_entry * page.len() as u64;
                (Ok(page), cost)
            }
            None => (Err(FsError::NotFound), self.costs.readdir_base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_stat_remove_cycle() {
        let mut fs = MetaStore::new();
        let (r, _) = fs.mknod("/d/a", 100);
        let ino = r.unwrap();
        let (st, _) = fs.stat("/d/a");
        let st = st.unwrap();
        assert_eq!(st.ino, ino);
        assert_eq!(st.mtime, 100);
        assert_eq!(fs.file_count(), 1);
        fs.rmnod("/d/a").0.unwrap();
        assert_eq!(fs.stat("/d/a").0, Err(FsError::NotFound));
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut fs = MetaStore::new();
        fs.mknod("/d/a", 0).0.unwrap();
        assert_eq!(fs.mknod("/d/a", 1).0, Err(FsError::Exists));
    }

    #[test]
    fn bad_paths_rejected() {
        let mut fs = MetaStore::new();
        for p in ["noslash", "/trailing/", "", "/"] {
            assert_eq!(fs.mknod(p, 0).0, Err(FsError::BadPath), "path {p:?}");
            assert_eq!(fs.stat(p).0, Err(FsError::BadPath));
        }
        // Root-level files are fine.
        assert!(fs.mknod("/rootfile", 0).0.is_ok());
        assert!(fs.stat("/rootfile").0.is_ok());
    }

    #[test]
    fn readdir_pages_and_sorts() {
        let mut fs = MetaStore::new();
        fs.readdir_page = 3;
        for i in 0..5 {
            fs.mknod(&format!("/dir/f{i}"), 0).0.unwrap();
        }
        let (page, cost) = fs.readdir("/dir");
        assert_eq!(page.unwrap(), vec!["f0", "f1", "f2"]);
        assert_eq!(cost, fs.costs.readdir_base + fs.costs.readdir_per_entry * 3);
        assert_eq!(fs.readdir("/missing").0, Err(FsError::NotFound));
    }

    #[test]
    fn update_ops_cost_more_than_reads() {
        // The premise behind Fig. 1(a)/13's contrast.
        let fs = MetaStore::new();
        assert!(fs.costs.mknod > fs.costs.stat * 4);
        assert!(fs.costs.rmnod > fs.costs.readdir_base * 3);
    }

    #[test]
    fn remove_missing_fails() {
        let mut fs = MetaStore::new();
        assert_eq!(fs.rmnod("/d/never").0, Err(FsError::NotFound));
        fs.mknod("/d/x", 0).0.unwrap();
        assert_eq!(fs.rmnod("/d/y").0, Err(FsError::NotFound));
    }
}
