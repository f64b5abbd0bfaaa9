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
use simcore::{EventQueue, SimDuration, SimTime};

/// The queue held at 4 096 pending events, the depth the 400-client
/// workloads keep it at (the repo benchmark's two queue kernels).
fn queue_at_depth() -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..4_096u64 {
        q.push(SimTime(i * 7 % 997), i);
    }
    q
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_4096", |b| {
        let mut q = queue_at_depth();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (t, v) = q.pop().expect("queue stays full");
            q.push(t + SimDuration::nanos(400 + (v * 31 + i) % 2_000), v);
        })
    });
    c.bench_function("event_queue_cancel_mix_4096", |b| {
        // Retransmission-timer pattern: of every two events pushed one
        // is cancelled in place (unlinked from its bucket) before it
        // fires.
        let mut q = queue_at_depth();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (t, v) = q.pop().expect("queue stays full");
            q.push(t + SimDuration::nanos(400 + (v * 31 + i) % 2_000), v);
            let timer = q.push(t + SimDuration::micros(300), v);
            black_box(q.cancel(timer))
        })
    });
    c.bench_function("event_queue_same_instant_burst_4096", |b| {
        // A fan-out lands 4 096 events on one instant: one bucket, one
        // list, pushed at the tail and popped at the head.
        let mut q = EventQueue::new();
        b.iter(|| {
            let t = q.now() + SimDuration::nanos(650);
            for i in 0..4_096u64 {
                q.push(t, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    c.bench_function("event_queue_far_timers_beside_near_traffic", |b| {
        // 4 096 timeouts 10–50 ms out stand on the upper levels while the
        // near traffic turns over beneath them; every 64th event is
        // rescheduled 50 µs out, far enough to be parked on level 1 and
        // dealt down to level 0 when `now` reaches its bucket.
        let mut q = queue_at_depth();
        for i in 0..4_096u64 {
            q.push(SimTime(10_000_000 + i * 9_973), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (t, v) = q.pop().expect("queue stays full");
            let ahead = if i.is_multiple_of(64) {
                50_000
            } else {
                400 + (v * 31 + i) % 2_000
            };
            q.push(t + SimDuration::nanos(ahead), v);
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
