//! Memory-mapped `.bbv` access: [`MmapFile`] (a read-only map with a heap
//! fallback) and [`MmapSource`], the streaming reader over either container
//! version. It yields owned [`Frame`]s, each built with one allocation and
//! one copy ([`Frame::from_rgb24`]) from the frame's RGB24 bytes: for v1
//! straight out of the mapping, for v2 out of one persistent decode buffer.
//!
//! The mapping uses two raw `mmap`/`munmap` FFI calls (the workspace has
//! no libc dependency) behind `cfg(unix, 64-bit)`; everywhere else, and
//! whenever the map call fails, the file is read onto the heap instead —
//! callers see the same `&[u8]` either way.

use crate::v2::V2Index;
use crate::VideoError;
use bb_imaging::Frame;
use std::io::Read;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    //! The unsafe surface: a private read-only file mapping. Invariants:
    //! the pointer/length pair always comes from a successful `mmap` and
    //! is handed back to `munmap` exactly once (in `Drop`); the mapping is
    //! `PROT_READ`, so sharing `&[u8]` across threads is sound. As with
    //! any file mapping, truncating the file while mapped can fault the
    //! process — sources open the file themselves and read it immediately,
    //! which matches how `.bbv` corpora are used (write once, read many).

    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    #[derive(Debug)]
    pub struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    impl Mapping {
        /// Maps `len` bytes of `file` read-only, or `None` if the kernel
        /// refuses (the caller falls back to a heap read).
        pub fn new(file: &std::fs::File, len: usize) -> Option<Mapping> {
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh private read-only mapping of an open file;
            // MAP_FAILED ((void*)-1) and null are both rejected below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                None
            } else {
                Some(Mapping { ptr, len })
            }
        }

        pub fn as_bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr+len` is a live read-only mapping owned by
            // `self`; the slice's lifetime is tied to the mapping's.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region `mmap` returned, once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    // SAFETY: the mapping is immutable (PROT_READ) and owns no
    // thread-affine state, so moving or sharing it is sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}
}

#[derive(Debug)]
enum MmapData {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::Mapping),
    Heap(Vec<u8>),
}

/// A read-only view of a whole file: memory-mapped when the platform and
/// kernel cooperate, read onto the heap otherwise. Either way the contents
/// are one contiguous `&[u8]`.
#[derive(Debug)]
pub struct MmapFile {
    data: MmapData,
}

impl MmapFile {
    /// Opens and maps (or reads) `path`.
    ///
    /// # Errors
    ///
    /// [`VideoError::Io`] on open/metadata/read failures.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapFile, VideoError> {
        let mut file = std::fs::File::open(path)?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let len = file.metadata()?.len();
            if len <= usize::MAX as u64 {
                if let Some(mapping) = sys::Mapping::new(&file, len as usize) {
                    return Ok(MmapFile {
                        data: MmapData::Mapped(mapping),
                    });
                }
            }
        }
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(MmapFile {
            data: MmapData::Heap(buf),
        })
    }

    /// The file contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.data {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MmapData::Mapped(m) => m.as_bytes(),
            MmapData::Heap(v) => v,
        }
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the contents are an actual kernel mapping (as opposed to the
    /// heap fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.data {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MmapData::Mapped(_) => true,
            MmapData::Heap(_) => false,
        }
    }
}

/// Which container a source is reading — exposed for `bbuster inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerVersion {
    /// Raw `BBV1` frames.
    V1,
    /// Compressed `BBV2` records (raw keyframes + span deltas).
    V2,
}

#[derive(Debug)]
enum Container {
    /// Frame `i` is the raw bytes at `payload + i × frame_bytes`: frames
    /// copy out of the mapping directly and `skip_frames` is pure arithmetic.
    V1 { payload: usize },
    /// Records decode into `cur`, one persistent frame-sized buffer;
    /// `cur_frame` tracks which frame `cur` currently holds so sequential
    /// reads apply exactly one delta and seeks re-sync from the nearest
    /// keyframe (≤ stripe − 1 extra records).
    V2 {
        index: V2Index,
        cur: Vec<u8>,
        cur_frame: Option<usize>,
    },
}

/// The streaming reader over a memory-mapped `.bbv` file of either
/// container version; [`MmapSource::next_frame`] yields its frames in order.
#[derive(Debug)]
pub struct MmapSource {
    map: MmapFile,
    fps: f64,
    width: usize,
    height: usize,
    count: usize,
    next: usize,
    container: Container,
}

impl MmapSource {
    /// Opens a `.bbv` file, sniffs the container version from the magic
    /// bytes and validates the header against the real file length.
    ///
    /// # Errors
    ///
    /// [`VideoError::Io`] on open failures, [`VideoError::Decode`] /
    /// [`VideoError::BadFrameRate`] on malformed containers.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapSource, VideoError> {
        let map = MmapFile::open(path)?;
        let data = map.as_bytes();
        if data.starts_with(crate::v2::MAGIC) {
            let index = V2Index::parse(data)?;
            let (width, height) = index.dims();
            let (fps, count) = (index.fps(), index.frame_count());
            let cur = vec![0u8; index.frame_bytes()];
            return Ok(MmapSource {
                map,
                fps,
                width,
                height,
                count,
                next: 0,
                container: Container::V2 {
                    index,
                    cur,
                    cur_frame: None,
                },
            });
        }
        let (fps, width, height, count) = crate::io::parse_header(data)?;
        if !fps.is_finite() || fps <= 0.0 {
            return Err(VideoError::BadFrameRate(fps));
        }
        crate::io::check_len(data, width, height, count)?;
        Ok(MmapSource {
            map,
            fps,
            width,
            height,
            count,
            next: 0,
            container: Container::V1 {
                payload: crate::io::HEADER_LEN,
            },
        })
    }

    /// The container version being read.
    pub fn version(&self) -> ContainerVersion {
        match self.container {
            Container::V1 { .. } => ContainerVersion::V1,
            Container::V2 { .. } => ContainerVersion::V2,
        }
    }

    /// Whether the file is served from a kernel mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Total frames in the container.
    pub fn frame_count(&self) -> usize {
        self.count
    }

    /// Yields the next frame as an owned [`Frame`], or `None` at the end.
    /// For v1 the frame is copied out of the mapping itself; for v2 out of
    /// the source's single decode buffer.
    ///
    /// # Errors
    ///
    /// [`VideoError::Decode`] on malformed v2 records.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, VideoError> {
        if self.next >= self.count {
            return Ok(None);
        }
        let target = self.next;
        let frame_bytes = self.width * self.height * 3;
        self.next += 1;
        let rgb = match &mut self.container {
            Container::V1 { payload } => {
                let at = *payload + target * frame_bytes;
                &self.map.as_bytes()[at..at + frame_bytes]
            }
            Container::V2 {
                index,
                cur,
                cur_frame,
            } => {
                let data = self.map.as_bytes();
                let first = match *cur_frame {
                    // The delta chain in `cur` continues to `target` iff it
                    // holds a frame from `target`'s stripe at or before it.
                    Some(have) if have < target && have >= index.keyframe_before(target) => {
                        have + 1
                    }
                    _ => index.keyframe_before(target),
                };
                for i in first..=target {
                    index.apply_record(data, i, cur)?;
                }
                *cur_frame = Some(target);
                cur.as_slice()
            }
        };
        Ok(Some(Frame::from_rgb24(self.width, self.height, rgb)?))
    }

    /// Skips up to `n` frames (bounded by what remains), returning how many
    /// were skipped, so a resumed session jumps past the frames its
    /// checkpoint already covers. Both containers seek by index: v1 frames
    /// are addressed directly, v2 re-syncs from the target's keyframe on the
    /// next read.
    pub fn skip_frames(&mut self, n: usize) -> usize {
        let skipped = n.min(self.count - self.next);
        self.next += skipped;
        skipped
    }

    /// The container's frame rate.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The frame geometry `(width, height)` from the container header.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VideoStream;
    use bb_imaging::Rgb;

    fn sample(frames: usize) -> VideoStream {
        VideoStream::generate(frames, 25.0, |i| {
            Frame::from_fn(6, 5, |x, y| Rgb::new((i * 11 + x) as u8, y as u8, 77))
        })
        .unwrap()
    }

    /// Drains a source into a stream through the owned-frame reader.
    fn read_all(src: &mut MmapSource) -> VideoStream {
        let mut frames = Vec::new();
        while let Some(f) = src.next_frame().unwrap() {
            frames.push(f);
        }
        VideoStream::from_frames(frames, src.fps()).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bb_video_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mmap_file_matches_fs_read() {
        let path = tmp("raw.bin");
        std::fs::write(&path, b"hello mapping").unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert_eq!(map.as_bytes(), b"hello mapping");
        assert_eq!(map.len(), 13);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let path = tmp("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            MmapFile::open("/nonexistent/nope.bin"),
            Err(VideoError::Io(_))
        ));
        assert!(matches!(
            MmapSource::open("/nonexistent/nope.bbv"),
            Err(VideoError::Io(_))
        ));
    }

    #[test]
    fn v1_source_round_trips() {
        let v = sample(6);
        let path = tmp("v1.bbv");
        crate::io::save(&v, &path).unwrap();
        let mut src = MmapSource::open(&path).unwrap();
        assert_eq!(src.version(), ContainerVersion::V1);
        assert_eq!(src.dims(), (6, 5));
        assert_eq!(src.frame_count(), 6);
        assert_eq!(src.fps(), 25.0);
        let collected = read_all(&mut src);
        assert_eq!(collected, v);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_source_round_trips() {
        let v = sample(11);
        let path = tmp("v2.bbv");
        crate::v2::save(&v, &path, 4).unwrap();
        let mut src = MmapSource::open(&path).unwrap();
        assert_eq!(src.version(), ContainerVersion::V2);
        let collected = read_all(&mut src);
        assert_eq!(collected, v);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skip_is_an_index_seek_on_both_versions() {
        let v = sample(13);
        for (name, stripe) in [("skip_v1.bbv", None), ("skip_v2.bbv", Some(4))] {
            let path = tmp(name);
            match stripe {
                None => crate::io::save(&v, &path).unwrap(),
                Some(s) => crate::v2::save(&v, &path, s).unwrap(),
            }
            let mut src = MmapSource::open(&path).unwrap();
            assert_eq!(src.skip_frames(7), 7);
            assert_eq!(&src.next_frame().unwrap().unwrap(), v.frame(7));
            // Backtrack-free sequential continuation after the seek.
            assert_eq!(&src.next_frame().unwrap().unwrap(), v.frame(8));
            assert_eq!(src.skip_frames(100), 4);
            assert!(src.next_frame().unwrap().is_none());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn truncated_v1_file_rejected_at_open() {
        let v = sample(3);
        let path = tmp("cut.bbv");
        let bytes = crate::io::encode(&v).unwrap();
        // A cut payload, and a cut at every byte of the header.
        let cuts = std::iter::once(bytes.len() - 5).chain(0..crate::io::HEADER_LEN);
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(MmapSource::open(&path), Err(VideoError::Decode(_))),
                "cut at {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
