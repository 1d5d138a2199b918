//! Storage ↔ engine integration: relations round-trip through on-disk heap
//! files, the buffer pool behaves under pressure, and representation sizes
//! drive page counts the way Figure 5 requires.

use orion_pdf::prelude::*;
use orion_storage::codec::{decode_joint, decode_pdf1, encode_joint, encode_pdf1};
use orion_storage::{BufferPool, FileStore, HeapFile, MemStore, Page, PageId, PageStore, Wal};
use orion_workload::SensorWorkload;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    orion_tests::scratch_dir("storage_integration").join(name)
}

#[test]
fn sensor_relation_round_trips_through_disk() {
    let path = temp_path("sensors.dat");
    let mut w = SensorWorkload::new(99);
    let readings = w.readings(1_000);
    {
        let mut heap = HeapFile::new(FileStore::create(&path).unwrap(), 32);
        let mut buf = Vec::new();
        for r in &readings {
            buf.clear();
            buf.extend_from_slice(&r.rid.to_le_bytes());
            encode_pdf1(&r.pdf(), &mut buf);
            heap.insert(&buf).unwrap();
        }
        heap.pool().flush().unwrap();
    }
    // Re-open cold and verify every record.
    let heap = HeapFile::new(FileStore::open(&path).unwrap(), 32);
    let mut seen = 0;
    heap.scan(|_, rec| {
        let rid = i64::from_le_bytes(rec[..8].try_into().unwrap());
        let pdf = decode_pdf1(&mut &rec[8..]).unwrap();
        let orig = &readings[(rid - 1) as usize];
        assert_eq!(pdf, orig.pdf(), "rid {rid}");
        seen += 1;
        true
    })
    .unwrap();
    assert_eq!(seen, 1_000);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn joint_pdfs_round_trip_through_disk() {
    let path = temp_path("joints.dat");
    let joint = JointPdf::from_points(
        JointDiscrete::from_points(2, vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)]).unwrap(),
    );
    let grid = JointPdf::from_grid(
        JointGrid::from_masses(
            vec![GridDim::over(0.0, 1.0, 4).unwrap(), GridDim::over(0.0, 1.0, 4).unwrap()],
            vec![1.0 / 16.0; 16],
        )
        .unwrap(),
    );
    let mixed = JointPdf::independent(vec![
        Pdf1::gaussian(0.0, 1.0).unwrap(),
        Pdf1::discrete(vec![(1.0, 0.5), (2.0, 0.5)]).unwrap(),
    ])
    .unwrap();
    let mut heap = HeapFile::new(FileStore::create(&path).unwrap(), 8);
    for j in [&joint, &grid, &mixed] {
        let mut buf = Vec::new();
        encode_joint(j, &mut buf);
        heap.insert(&buf).unwrap();
    }
    let originals = [joint, grid, mixed];
    let mut i = 0;
    heap.scan(|_, rec| {
        let j = decode_joint(&mut &rec[..]).unwrap();
        assert_eq!(j, originals[i]);
        i += 1;
        true
    })
    .unwrap();
    assert_eq!(i, 3);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn representation_sizes_drive_page_counts() {
    // The Figure 5 premise at storage level: symbolic < hist-5 < disc-25.
    let mut w = SensorWorkload::new(123);
    let readings = w.readings(2_000);
    let mut pages = Vec::new();
    for repr in 0..3 {
        let mut heap = HeapFile::new(MemStore::new(), 16);
        let mut buf = Vec::new();
        for r in &readings {
            let exact = r.pdf();
            let pdf = match repr {
                0 => exact,
                1 => Pdf1::Histogram(exact.to_histogram(5).unwrap()),
                _ => Pdf1::Discrete(exact.to_discrete(25).unwrap()),
            };
            buf.clear();
            buf.extend_from_slice(&r.rid.to_le_bytes());
            encode_pdf1(&pdf, &mut buf);
            heap.insert(&buf).unwrap();
        }
        pages.push(heap.page_count());
    }
    assert!(pages[0] <= pages[1], "symbolic {} <= hist {}", pages[0], pages[1]);
    assert!(pages[1] < pages[2], "hist {} < discrete {}", pages[1], pages[2]);
    assert!(pages[2] as f64 / pages[1] as f64 > 2.0, "discrete-25 is much wider");
}

#[test]
fn small_pool_scan_touches_every_page_once() {
    let mut heap = HeapFile::new(MemStore::new(), 4);
    let rec = vec![1u8; 2000];
    for _ in 0..64 {
        heap.insert(&rec).unwrap();
    }
    let pages = heap.page_count();
    assert!(pages as usize > 8, "spills past the pool");
    heap.pool().clear_cache().unwrap();
    heap.pool().stats().reset();
    let mut n = 0;
    heap.scan(|_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 64);
    let stats = heap.pool().stats().snapshot();
    assert_eq!(stats.physical_reads, pages as u64, "sequential scan: one read per page");
}

#[test]
fn wal_survives_trailing_garbage_across_reopen() {
    let path = temp_path("garbage.wal");
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"committed-1").unwrap();
        wal.append(b"committed-2").unwrap();
        wal.sync().unwrap();
    }
    // A crash mid-append leaves frame fragments behind.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&[0x5A; 11]).unwrap();
    drop(f);
    let (mut wal, replay) = Wal::open(&path).unwrap();
    assert_eq!(replay.records, vec![b"committed-1".to_vec(), b"committed-2".to_vec()]);
    assert_eq!(replay.truncated_bytes, 11);
    // The log is usable again and the garbage never resurfaces.
    wal.append(b"committed-3").unwrap();
    wal.sync().unwrap();
    drop(wal);
    let (_, replay) = Wal::open(&path).unwrap();
    assert_eq!(replay.records.len(), 3);
    assert_eq!(replay.truncated_bytes, 0);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// A store whose next `fail` writes error without touching the data —
/// exercising the pool's keep-dirty-on-failure contract from outside the
/// storage crate.
struct FlakyStore {
    inner: MemStore,
    fail: std::sync::Arc<std::sync::atomic::AtomicU32>,
}

impl PageStore for FlakyStore {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
        self.inner.read_page(id, page)
    }
    fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
        use std::sync::atomic::Ordering;
        if self.fail.load(Ordering::SeqCst) > 0 {
            self.fail.fetch_sub(1, Ordering::SeqCst);
            return Err(std::io::Error::other("transient write failure"));
        }
        self.inner.write_page(id, page)
    }
    fn allocate(&mut self) -> std::io::Result<PageId> {
        self.inner.allocate()
    }
}

#[test]
fn buffer_pool_retries_after_transient_write_errors_without_data_loss() {
    let fail = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let pool = BufferPool::new(FlakyStore { inner: MemStore::new(), fail: fail.clone() }, 8);
    let mut ids = Vec::new();
    for i in 0..5u8 {
        let id = pool.allocate().unwrap();
        pool.with_page_mut(id, |p| p.insert(&[i; 64]).unwrap()).unwrap();
        ids.push(id);
    }
    // Two flushes fail transiently; no write must be silently dropped.
    fail.store(2, std::sync::atomic::Ordering::SeqCst);
    assert!(pool.flush().is_err());
    assert!(pool.flush().is_err());
    assert_eq!(pool.stats().snapshot().write_errors, 2);
    // The device recovers; the retry lands every dirty page.
    pool.flush().unwrap();
    pool.clear_cache().unwrap();
    for (i, id) in ids.iter().enumerate() {
        let ok = pool.with_page(*id, |p| p.get(0) == Some(&[i as u8; 64][..])).unwrap();
        assert!(ok, "page {id} lost its data");
    }
}

#[test]
fn corrupted_record_is_detected() {
    let mut heap = HeapFile::new(MemStore::new(), 4);
    let mut buf = Vec::new();
    encode_pdf1(&Pdf1::gaussian(0.0, 1.0).unwrap(), &mut buf);
    buf.truncate(buf.len() - 3);
    let rid = heap.insert(&buf).unwrap();
    let rec = heap.get(rid).unwrap().unwrap();
    assert!(decode_pdf1(&mut &rec[..]).is_err());
}
