//! Golden pins of the two RNG-driven streams behind every figure-scale
//! trial: the [`TraceWalker`] op stream and the [`DataGen`] address
//! stream.
//!
//! Every stored result cell, every recorded trace template and the
//! end-to-end digests all depend on these streams bit for bit, so any
//! change to the walker, the data generator or the vendored RNG must
//! leave both digests untouched. Regenerate only together with a store
//! key-version bump.

use dvs_workloads::{Benchmark, DataGen, Layout, OpClass, StepMeta, TargetRef, TraceOp};

/// Ops (and addresses) folded per benchmark: the figure-scale trace
/// length, which is past the template cap, so it is the walker path.
const STREAM_LEN: usize = 200_000;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn opt_u8(&mut self, x: Option<u8>) {
        match x {
            Some(v) => self.bytes(&[1, v]),
            None => self.bytes(&[0]),
        }
    }

    fn opt_u64(&mut self, x: Option<u64>) {
        match x {
            Some(v) => {
                self.bytes(&[1]);
                self.u64(v);
            }
            None => self.bytes(&[0]),
        }
    }

    fn op(&mut self, op: &TraceOp) {
        self.u64(op.pc);
        let class = match op.class {
            OpClass::IntAlu => 0,
            OpClass::IntMult => 1,
            OpClass::FpAlu => 2,
            OpClass::FpMult => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::Branch => 6,
        };
        self.bytes(&[class]);
        self.opt_u64(op.mem_addr);
        self.opt_u8(op.dest);
        self.opt_u8(op.src1);
        self.opt_u8(op.src2);
        match op.branch {
            Some(b) => {
                self.bytes(&[1, u8::from(b.taken)]);
                self.u64(b.target);
            }
            None => self.bytes(&[0]),
        }
        self.bytes(&[u8::from(op.synthetic)]);
    }

    fn meta(&mut self, meta: &StepMeta) {
        self.u64(meta.block as u64);
        self.u64(u64::from(meta.word));
        self.opt_u64(meta.literal_ordinal.map(u64::from));
        match meta.target {
            Some(TargetRef::Start(b)) => {
                self.bytes(&[1]);
                self.u64(b as u64);
            }
            Some(TargetRef::AfterCall(b)) => {
                self.bytes(&[2]);
                self.u64(b as u64);
            }
            Some(TargetRef::SelfPc) => self.bytes(&[3]),
            None => self.bytes(&[0]),
        }
    }
}

/// Digest of every `TraceOp` field plus `last_step_meta()` for the first
/// 200 000 ops of each bench10 workload (build seed 42, trace seed 0,
/// sequential layout), chained over the ten benchmarks in paper order.
///
/// The constant was recorded on the walker as it stood before the
/// table-driven walker and the register-resident ChaCha12 refill
/// replaced it; it pins that those are pure speedups.
#[test]
fn walker_stream_is_pinned() {
    let mut h = Fnv::new();
    for b in Benchmark::ALL {
        let wl = b.build(42);
        let layout = Layout::sequential(wl.program());
        let mut walker = wl.trace(&layout, 0);
        for _ in 0..STREAM_LEN {
            let op = walker.next().expect("bench10 traces never end");
            h.op(&op);
            h.meta(&walker.last_step_meta());
        }
    }
    assert_eq!(h.0, WALKER_GOLDEN, "walker stream digest {:#018x}", h.0);
}

/// Digest of the first 200 000 `DataGen` addresses of each bench10
/// benchmark's calibration (seed = 42 + benchmark index), chained in paper
/// order. Recorded before the allocation-free `DataGen::refill`, like
/// [`walker_stream_is_pinned`].
#[test]
fn datagen_stream_is_pinned() {
    let mut h = Fnv::new();
    for (i, b) in Benchmark::ALL.into_iter().enumerate() {
        let mut gen = DataGen::new(b.data_params(), 42 + i as u64);
        for _ in 0..STREAM_LEN {
            h.u64(gen.next_addr());
        }
    }
    assert_eq!(h.0, DATAGEN_GOLDEN, "datagen stream digest {:#018x}", h.0);
}

const WALKER_GOLDEN: u64 = 0x3266_268c_0153_959c;
const DATAGEN_GOLDEN: u64 = 0x2f3a_449e_242d_d303;
