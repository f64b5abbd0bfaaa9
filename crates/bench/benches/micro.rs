//! Criterion micro-benchmarks of the hot data structures underneath the
//! simulator: the event queue, the cache models, the message codec, the
//! KV table and the scheduler. These guard the simulator's own
//! performance (experiment sweeps execute hundreds of millions of these
//! operations).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rdma_fabric::llc::LlcModel;
use rdma_fabric::lru::RandomSet;
use rdma_fabric::MrId;
use rpc_core::message::{MsgBuf, RpcHeader};
use simcore::stats::Histogram;
use simcore::{EventQueue, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime(i * 7 % 997), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    c.bench_function("event_queue_push_cancel_pop_1k", |b| {
        // Interleaved cancellation: half the pushed events are cancelled
        // in place before the drain, the pattern retransmission timers
        // produce. Exercises the indexed heap's O(log n) remove_at.
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..1000u64)
                .map(|i| q.push(SimTime(i * 7 % 997), i))
                .collect();
            for id in ids.iter().skip(1).step_by(2) {
                q.cancel(*id);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn bench_caches(c: &mut Criterion) {
    c.bench_function("random_set_touch_thrash", |b| {
        let mut set = RandomSet::new(64);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 256;
            black_box(set.touch(i))
        })
    });
    c.bench_function("llc_dma_write_32B", |b| {
        let mut llc = LlcModel::new(1 << 20, 0.1);
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 4096) % (1 << 22);
            black_box(llc.dma_write(MrId(0), off, 32))
        })
    });
    c.bench_function("llc_dma_write_8k", |b| {
        // Streaming DMA of an 8 KB block (Fig. 3b's inbound-write unit)
        // over a 64 MB region against the paper's 30 MB LLC: 128 lines
        // per call, nearly all Write-Allocating into a full DDIO
        // partition.
        let mut llc = LlcModel::new(30 << 20, 0.1);
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 8192) % (64 << 20);
            black_box(llc.dma_write(MrId(0), off, 8192))
        })
    });
    c.bench_function("llc_cpu_access_8k", |b| {
        // CPU-side poll of the same block size: every line misses and
        // evicts from the full main domain.
        let mut llc = LlcModel::new(30 << 20, 0.1);
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 8192) % (64 << 20);
            black_box(llc.cpu_access(MrId(0), off, 8192))
        })
    });
}

fn bench_message_codec(c: &mut Criterion) {
    c.bench_function("msgbuf_encode_decode_48B", |b| {
        let header = RpcHeader {
            call_type: 1,
            flags: 0,
            client_id: 9,
            seq: 1234,
        };
        let mut payload = header.encode().to_vec();
        payload.extend_from_slice(&[7u8; 32]);
        b.iter(|| {
            let (off, bytes) = MsgBuf::encode(&payload, 4096).unwrap();
            let mut block = vec![0u8; 4096];
            block[off..].copy_from_slice(&bytes);
            black_box(MsgBuf::decode(&block).map(<[u8]>::len))
        })
    });
}

fn bench_kv(c: &mut Criterion) {
    use mica_kv::KvTable;
    c.bench_function("kv_get_hot", |b| {
        let mut t = KvTable::new(10_000, 40);
        let mut mem = vec![0u8; t.required_bytes()];
        for k in 0..10_000u64 {
            t.insert(&mut mem, k, b"0123456789").unwrap();
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 10_000;
            black_box(t.get(&mem, k).unwrap().version)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000;
            h.record(black_box(v));
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    use scalerpc::{ClientStats, Scheduler};
    use simcore::SimDuration;
    c.bench_function("scheduler_replan_400", |b| {
        let sched = Scheduler::new(40, SimDuration::micros(100), true);
        let stats: Vec<ClientStats> = (0..400)
            .map(|i| ClientStats {
                ops: (i % 50) as u64 * 10,
                bytes: 32 * ((i % 50) as u64 * 10).max(1),
            })
            .collect();
        b.iter(|| black_box(sched.replan(&stats).groups.len()))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_caches,
    bench_message_codec,
    bench_kv,
    bench_histogram,
    bench_scheduler
);
criterion_main!(benches);
