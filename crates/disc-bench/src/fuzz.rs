//! Differential fuzzing of the cycle-accurate machine against the
//! `disc-ref` golden-reference interpreter.
//!
//! A splitmix64-seeded generator produces random DISC1 programs that are
//! *constrained to terminate* (bounded loops, balanced call/return and
//! window motion, forward-only conditional skips, self-signals whose
//! handlers return) and *constrained to be schedule-deterministic* (each
//! stream owns disjoint memory regions and globals; `ir`/`mr` are never
//! ALU operands; multi-stream programs end in `stop`, never `halt`). Each
//! program runs on both models — the machine under a randomized
//! microarchitecture (pipeline depth, window depth, bus latency, sequence
//! table) and the reference interpreter — and the final architectural
//! state is compared field by field: per-stream window stacks, AWP, `sp`,
//! flags, `ir`/`mr`, service state, retired-instruction counts (and, for
//! programs without cross-stream signals, the exact per-stream retired
//! program-order), plus globals, internal memory and external memory.
//!
//! On mismatch, [`minimize`] nops out instructions to a fixed point while
//! preserving the divergence, so regressions land as one-line seeds plus
//! a small listing.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::replay::ReplayLog;
use disc_board::Board;
use disc_core::{
    CycleRecord, DispatchMode, Exit, Machine, MachineConfig, SchedulePolicy, StepMode, TraceEvent,
    TraceSink,
};
use disc_isa::{encode::encode, AluImmOp, AluOp, AwpMode, Cond, Instruction, Program, Reg};
use disc_ref::{RefConfig, RefExit, RefMachine};
use disc_snap::splitmix64;

/// Cycle budget for the machine; generated programs finish far earlier,
/// so hitting this is itself reported as a divergence.
pub const MACHINE_CYCLES: u64 = 400_000;

/// Instruction budget for the reference interpreter.
pub const REF_STEPS: u64 = 200_000;

// ---- seeded generator ---------------------------------------------------

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// A generated program plus the microarchitecture it should run under and
/// the comparison mode it supports.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Seed that produced it.
    pub seed: u64,
    /// The program image (entries + vectors included).
    pub program: Program,
    /// Streams the machine must be configured with.
    pub streams: usize,
    /// `true` when the exact per-stream retired-pc sequences are
    /// schedule-independent (no cross-stream signals); `false` compares
    /// retired counts and final state only.
    pub exact: bool,
    /// Randomized machine pipeline depth (architecturally invisible).
    pub pipeline_depth: usize,
    /// Window file depth for both models.
    pub window_depth: usize,
    /// Uniform external bus latency (architecturally invisible).
    pub ext_latency: u32,
    /// Random 16-slot sequence table, or `None` for round-robin
    /// (architecturally invisible).
    pub schedule: Option<Vec<u8>>,
    /// Timing mode for the machine run (architecturally invisible). When
    /// [`StepMode::EventSkip`] is drawn, the runner additionally executes
    /// a second, sink-free machine where quiescence skipping can actually
    /// engage (the retire-log sink pins it off on the primary machine)
    /// and requires its final state and statistics to be identical.
    pub step_mode: StepMode,
    /// Execute dispatcher for the machine run (architecturally
    /// invisible). Like the step mode, [`DispatchMode::Superblock`] only
    /// engages on the sink-free cross-check machine — the retire-log sink
    /// pins burst execution off on the primary machine.
    pub dispatch_mode: DispatchMode,
    /// External address ranges `[lo, hi)` the program may touch, for the
    /// external-memory comparison sweep.
    pub ext_regions: Vec<(u16, u16)>,
    /// Board document backing the run, or `None` for the machine's
    /// built-in flat external memory (architecturally invisible). When
    /// drawn, every machine the runner builds — primary, sink-free
    /// cross-check, and each mode fork — gets the board's peripheral
    /// bus: external RAM covering both per-stream data bands at the
    /// drawn latency, plus up to two decorative IRQ-less devices that
    /// perturb event-skip horizons and bus arbitration without touching
    /// architectural state.
    pub board: Option<String>,
}

/// Per-stream code/data layout constants. Stream `s` owns:
/// code `[s*0x400, (s+1)*0x400)` (fork targets must fit in 12 bits, so
/// all code lives below 0x1000), internal data `[0x80+s*0x40, …+0x40)`,
/// low external data `[0x500+s*0x100, …+0x100)` (reachable by `lda`/
/// `sta`) and high external data `[0x8000+s*0x100, …+0x100)`.
const CODE_STRIDE: u16 = 0x400;
const FN_OFF: u16 = 0x300;
const HANDLER_OFF: u16 = 0x340;
const HANDLER_STRIDE: u16 = 0x20;
const INT_BASE: u16 = 0x80;
const INT_STRIDE: u16 = 0x40;
// Low enough that every ext-low address fits `ldi`'s signed 12-bit
// immediate (max 0x440 + 3*0x100 + 0x3e < 0x800).
const EXT_LO_BASE: u16 = 0x440;
const EXT_HI_BASE: u16 = 0x8000;
const EXT_STRIDE: u16 = 0x100;
/// IR bit targets of cross-stream signals (handler always installed).
const CROSS_BIT: u8 = 4;
/// Self-signal bits that may get vectored handlers.
const VECTORED_BITS: [u8; 3] = [2, 3, 5];
/// Non-vectored scratch bit (raised and cleared within one block).
const SCRATCH_BIT: u8 = 1;

/// ALU source pool: window registers, `sp`, own global, rarely `sr`
/// (never `ir`/`mr`, whose mid-pipeline effects are timing-dependent).
fn pick_src(rng: &mut SplitMix64, own_global: Reg) -> Reg {
    let roll = rng.below(100);
    if roll < 70 {
        Reg::window(rng.below(8) as u8)
    } else if roll < 80 {
        Reg::Sp
    } else if roll < 92 {
        own_global
    } else {
        Reg::Sr
    }
}

fn pick_alu_op(rng: &mut SplitMix64) -> AluOp {
    rng.pick(&AluOp::ALL)
}

fn pick_alu_imm_op(rng: &mut SplitMix64) -> AluImmOp {
    rng.pick(&AluImmOp::ALL)
}

/// One random computational instruction with no window motion.
fn gen_flat_alu(rng: &mut SplitMix64, own_global: Reg, dests: &[Reg]) -> Instruction {
    let rd = rng.pick(dests);
    if rng.chance(45) {
        Instruction::AluImm {
            op: pick_alu_imm_op(rng),
            awp: AwpMode::None,
            rd,
            rs: pick_src(rng, own_global),
            imm: rng.below(256) as u8,
        }
    } else {
        Instruction::Alu {
            op: pick_alu_op(rng),
            awp: AwpMode::None,
            rd,
            rs: pick_src(rng, own_global),
            rt: pick_src(rng, own_global),
        }
    }
}

/// Emits one stream's program into `program`. `restricted` disables window
/// motion, calls and self-signals (used for cross-signal receivers, whose
/// handler must always find the background window where it left it).
#[allow(clippy::too_many_arguments)]
fn gen_stream(
    rng: &mut SplitMix64,
    program: &mut Program,
    s: usize,
    streams: usize,
    restricted: bool,
    cross_sender: bool,
    end_with_halt: bool,
    ext_regions: &mut Vec<(u16, u16)>,
) {
    let base = s as u16 * CODE_STRIDE;
    let own_global = Reg::global(s.min(3) as u8);
    let int_lo = INT_BASE + s as u16 * INT_STRIDE;
    let ext_lo = EXT_LO_BASE + s as u16 * EXT_STRIDE;
    let ext_hi = EXT_HI_BASE + s as u16 * EXT_STRIDE;
    ext_regions.push((ext_lo, ext_lo + EXT_STRIDE));
    ext_regions.push((ext_hi, ext_hi + EXT_STRIDE));

    let mut pc = base;
    let mut emit = |program: &mut Program, pc: &mut u16, i: Instruction| {
        program.set_instruction(*pc, &i);
        *pc = pc.wrapping_add(1);
    };

    // Leaf functions: `winc 2`, a little work on the fresh registers,
    // `ret 2`. The return address sits at the callee's R2, so bodies only
    // ever write R0/R1.
    let mut functions = Vec::new();
    if !restricted {
        let nfuncs = rng.below(3);
        let mut fpc = base + FN_OFF;
        for _ in 0..nfuncs {
            functions.push(fpc);
            emit(program, &mut fpc, Instruction::Winc { n: 2 });
            for _ in 0..rng.range(1, 3) {
                let i = gen_flat_alu(rng, own_global, &[Reg::R0, Reg::R1]);
                emit(program, &mut fpc, i);
            }
            emit(program, &mut fpc, Instruction::Ret { pop: 2 });
            fpc = fpc.wrapping_add(2);
        }
    }

    // Vectored self-signal handlers: balanced `winc 2`/`wdec 2` framing,
    // work confined to the fresh registers, optional store to a cell the
    // background never touches, `reti`.
    let mut vectored = Vec::new();
    if !restricted {
        for (i, &bit) in VECTORED_BITS.iter().enumerate() {
            if !rng.chance(40) {
                continue;
            }
            let mut hpc = base + HANDLER_OFF + i as u16 * HANDLER_STRIDE;
            program.set_vector(s, bit, hpc);
            vectored.push(bit);
            emit(program, &mut hpc, Instruction::Winc { n: 2 });
            for _ in 0..rng.range(1, 3) {
                let i = gen_flat_alu(rng, own_global, &[Reg::R0, Reg::R1]);
                emit(program, &mut hpc, i);
            }
            if rng.chance(50) {
                let cell = int_lo + 0x38 + bit as u16;
                emit(
                    program,
                    &mut hpc,
                    Instruction::Sta {
                        awp: AwpMode::None,
                        src: Reg::R0,
                        addr: cell,
                    },
                );
            }
            emit(program, &mut hpc, Instruction::Wdec { n: 2 });
            emit(program, &mut hpc, Instruction::Reti);
        }
    }

    // Cross-signal receiver handler: writes a seed-derived constant into a
    // dedicated cell. `winc 1` gives it a fresh R0 so the background's
    // registers survive; the receiver's background never moves its window,
    // so the handler's write always lands in the same physical slot.
    if restricted {
        let mut hpc = base + HANDLER_OFF + 3 * HANDLER_STRIDE;
        program.set_vector(s, CROSS_BIT, hpc);
        let marker = rng.below(0x800) as i16;
        emit(program, &mut hpc, Instruction::Winc { n: 1 });
        emit(
            program,
            &mut hpc,
            Instruction::Ldi {
                awp: AwpMode::None,
                rd: Reg::R0,
                imm: marker,
            },
        );
        emit(
            program,
            &mut hpc,
            Instruction::Sta {
                awp: AwpMode::None,
                src: Reg::R0,
                addr: int_lo + 0x3f,
            },
        );
        emit(program, &mut hpc, Instruction::Wdec { n: 1 });
        emit(program, &mut hpc, Instruction::Reti);
    }

    // Body. Stream 0 of a multi-stream program forks the others first.
    if s == 0 {
        for t in 1..streams {
            emit(
                program,
                &mut pc,
                Instruction::Fork {
                    stream: t as u8,
                    target: t as u16 * CODE_STRIDE,
                },
            );
        }
    }

    let nblocks = rng.range(3, 9);
    for _ in 0..nblocks {
        let kind = rng.below(if restricted { 4 } else { 8 });
        match kind {
            // Straight-line ALU with optional (balanced) window motion.
            0 => {
                let mut net: i32 = 0;
                for _ in 0..rng.range(1, 6) {
                    let mut i = gen_flat_alu(
                        rng,
                        own_global,
                        &[
                            Reg::R0,
                            Reg::R1,
                            Reg::R2,
                            Reg::R3,
                            Reg::R4,
                            Reg::R5,
                            Reg::Sp,
                            own_global,
                            Reg::Sr,
                        ],
                    );
                    if !restricted {
                        let awp = match rng.below(10) {
                            0 | 1 => AwpMode::Inc,
                            2 if net > 0 => AwpMode::Dec,
                            _ => AwpMode::None,
                        };
                        net += match awp {
                            AwpMode::Inc => 1,
                            AwpMode::Dec => -1,
                            AwpMode::None => 0,
                        };
                        match &mut i {
                            Instruction::Alu { awp: a, .. }
                            | Instruction::AluImm { awp: a, .. } => *a = awp,
                            _ => {}
                        }
                    }
                    emit(program, &mut pc, i);
                }
                if net > 0 {
                    emit(program, &mut pc, Instruction::Wdec { n: net as u8 });
                }
            }
            // Memory traffic in the stream's own regions.
            1 => {
                for _ in 0..rng.range(1, 5) {
                    gen_mem_op(rng, program, &mut pc, &mut emit, int_lo, ext_lo, ext_hi);
                }
            }
            // Bounded counted loop on R7.
            2 => {
                let n = rng.range(1, 5) as i16;
                emit(
                    program,
                    &mut pc,
                    Instruction::Ldi {
                        awp: AwpMode::None,
                        rd: Reg::R7,
                        imm: n,
                    },
                );
                let top = pc;
                for _ in 0..rng.range(1, 4) {
                    let i = gen_flat_alu(
                        rng,
                        own_global,
                        &[Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5],
                    );
                    emit(program, &mut pc, i);
                }
                emit(
                    program,
                    &mut pc,
                    Instruction::AluImm {
                        op: AluImmOp::Subi,
                        awp: AwpMode::None,
                        rd: Reg::R7,
                        rs: Reg::R7,
                        imm: 1,
                    },
                );
                emit(
                    program,
                    &mut pc,
                    Instruction::Jmp {
                        cond: Cond::Nz,
                        target: top,
                    },
                );
            }
            // Compare + forward conditional skip.
            3 => {
                let cmp = if rng.chance(50) {
                    Instruction::Alu {
                        op: AluOp::Cmp,
                        awp: AwpMode::None,
                        rd: Reg::R0,
                        rs: pick_src(rng, own_global),
                        rt: pick_src(rng, own_global),
                    }
                } else {
                    Instruction::AluImm {
                        op: AluImmOp::Cmpi,
                        awp: AwpMode::None,
                        rd: Reg::R0,
                        rs: pick_src(rng, own_global),
                        imm: rng.below(256) as u8,
                    }
                };
                emit(program, &mut pc, cmp);
                let jump_at = pc;
                emit(program, &mut pc, Instruction::Nop); // patched below
                for _ in 0..rng.range(1, 3) {
                    let i = gen_flat_alu(
                        rng,
                        own_global,
                        &[Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5],
                    );
                    emit(program, &mut pc, i);
                }
                program.set_instruction(
                    jump_at,
                    &Instruction::Jmp {
                        cond: rng.pick(&Cond::ALL),
                        target: pc,
                    },
                );
            }
            // Call a leaf function.
            4 => {
                if let Some(&f) = functions.first() {
                    let f = if functions.len() > 1 && rng.chance(50) {
                        functions[1]
                    } else {
                        f
                    };
                    emit(program, &mut pc, Instruction::Call { target: f });
                }
            }
            // Vectored self-signal: the handler preempts before the next
            // instruction of this stream.
            5 => {
                if !vectored.is_empty() {
                    let bit = rng.pick(&vectored);
                    emit(
                        program,
                        &mut pc,
                        Instruction::Signal {
                            stream: s as u8,
                            bit,
                        },
                    );
                }
            }
            // Non-vectored self-signal: keeps the stream active at
            // background level until the matching `clri`.
            6 => {
                emit(
                    program,
                    &mut pc,
                    Instruction::Signal {
                        stream: s as u8,
                        bit: SCRATCH_BIT,
                    },
                );
                for _ in 0..rng.range(0, 2) {
                    let i = gen_flat_alu(rng, own_global, &[Reg::R0, Reg::R1, Reg::R2]);
                    emit(program, &mut pc, i);
                }
                emit(program, &mut pc, Instruction::Clri { bit: SCRATCH_BIT });
            }
            // Deep balanced window excursion (exercises spill/fill).
            _ => {
                let k = rng.range(4, 20) as u8;
                emit(program, &mut pc, Instruction::Winc { n: k });
                for _ in 0..rng.range(1, 3) {
                    let i = gen_flat_alu(rng, own_global, &[Reg::R0, Reg::R1, Reg::R2, Reg::R3]);
                    emit(program, &mut pc, i);
                }
                emit(program, &mut pc, Instruction::Wdec { n: k });
            }
        }
    }

    // Cross-stream signals go out last, just before the sender parks.
    if cross_sender {
        for t in 1..streams {
            emit(
                program,
                &mut pc,
                Instruction::Signal {
                    stream: t as u8,
                    bit: CROSS_BIT,
                },
            );
        }
    }

    if end_with_halt {
        emit(program, &mut pc, Instruction::Halt);
    } else {
        emit(program, &mut pc, Instruction::Stop);
    }
}

/// One random load/store/`tset` confined to the stream's own regions.
fn gen_mem_op(
    rng: &mut SplitMix64,
    program: &mut Program,
    pc: &mut u16,
    emit: &mut impl FnMut(&mut Program, &mut u16, Instruction),
    int_lo: u16,
    ext_lo: u16,
    ext_hi: u16,
) {
    let region = rng.below(3);
    let cell = rng.range(8, 0x37) as u16;
    let dest = Reg::window(rng.below(6) as u8);
    let src = Reg::window(rng.below(6) as u8);
    match region {
        // Internal or low-external memory: directly addressable.
        0 | 1 => {
            let lo = if region == 0 { int_lo } else { ext_lo };
            let addr = lo + cell;
            match rng.below(4) {
                0 => emit(
                    program,
                    pc,
                    Instruction::Lda {
                        awp: AwpMode::None,
                        rd: dest,
                        addr,
                    },
                ),
                1 | 2 => emit(
                    program,
                    pc,
                    Instruction::Sta {
                        awp: AwpMode::None,
                        src,
                        addr,
                    },
                ),
                _ => {
                    // Base+offset form through R6.
                    emit(
                        program,
                        pc,
                        Instruction::Ldi {
                            awp: AwpMode::None,
                            rd: Reg::R6,
                            imm: addr as i16,
                        },
                    );
                    let offset = rng.range(0, 15) as i8 - 8;
                    let i = if rng.chance(20) {
                        Instruction::Tset {
                            rd: dest,
                            base: Reg::R6,
                            offset,
                        }
                    } else if rng.chance(50) {
                        Instruction::Ld {
                            awp: AwpMode::None,
                            rd: dest,
                            base: Reg::R6,
                            offset,
                        }
                    } else {
                        Instruction::St {
                            awp: AwpMode::None,
                            src,
                            base: Reg::R6,
                            offset,
                        }
                    };
                    emit(program, pc, i);
                }
            }
        }
        // High external memory: build the base with `ldi`+`lui`.
        _ => {
            let addr = ext_hi + cell;
            emit(
                program,
                pc,
                Instruction::Ldi {
                    awp: AwpMode::None,
                    rd: Reg::R6,
                    imm: (addr & 0xff) as i16,
                },
            );
            emit(
                program,
                pc,
                Instruction::Lui {
                    rd: Reg::R6,
                    imm: (addr >> 8) as u8,
                },
            );
            let offset = rng.range(0, 15) as i8 - 8;
            let i = match rng.below(3) {
                0 => Instruction::Ld {
                    awp: AwpMode::None,
                    rd: dest,
                    base: Reg::R6,
                    offset,
                },
                1 => Instruction::St {
                    awp: AwpMode::None,
                    src,
                    base: Reg::R6,
                    offset,
                },
                _ => Instruction::Tset {
                    rd: dest,
                    base: Reg::R6,
                    offset,
                },
            };
            emit(program, pc, i);
        }
    }
}

/// Generates the whole differential test case for `seed`.
pub fn generate(seed: u64) -> GenProgram {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed);
    let streams = if rng.chance(50) {
        1
    } else {
        rng.range(2, 4) as usize
    };
    let cross = streams > 1 && rng.chance(35);
    let mut program = Program::new();
    let mut ext_regions = Vec::new();
    program.set_entry(0, 0);
    for s in 0..streams {
        let restricted = cross && s > 0;
        let end_with_halt = streams == 1 && rng.chance(50);
        gen_stream(
            &mut rng,
            &mut program,
            s,
            streams,
            restricted,
            cross && s == 0,
            end_with_halt,
            &mut ext_regions,
        );
    }
    let schedule = if streams > 1 && rng.chance(50) {
        // Random 16-slot table. Every stream must appear at least once: a
        // stream absent from the sequence table has a static share of
        // zero and is never issued — even dynamic reallocation only scans
        // the table — so a live stream left out would starve forever.
        let mut table: Vec<u8> = (0..16)
            .map(|i| {
                if i < streams {
                    i as u8
                } else {
                    rng.below(streams as u64) as u8
                }
            })
            .collect();
        // Fisher–Yates shuffle preserves the guaranteed coverage.
        for i in (1..table.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            table.swap(i, j);
        }
        Some(table)
    } else {
        None
    };
    let pipeline_depth = rng.range(3, 6) as usize;
    let window_depth = rng.pick(&[12usize, 16, 64]);
    let ext_latency = rng.below(4) as u32;
    let step_mode = if rng.chance(50) {
        StepMode::EventSkip
    } else {
        StepMode::CycleByCycle
    };
    // Drawn after every pre-existing knob so older corpus seeds keep
    // generating the exact same programs and configurations.
    let dispatch_mode = if rng.chance(50) {
        DispatchMode::Superblock
    } else {
        DispatchMode::Legacy
    };
    // Drawn after the dispatch mode, for the same reason. A board can
    // only express mapped latencies of at least one cycle, so seeds that
    // drew latency 0 always keep the flat bus.
    let board = if ext_latency >= 1 && rng.chance(35) {
        Some(gen_board(&mut rng, streams, ext_latency))
    } else {
        None
    };
    GenProgram {
        seed,
        program,
        streams,
        exact: !cross,
        pipeline_depth,
        window_depth,
        ext_latency,
        schedule,
        step_mode,
        dispatch_mode,
        ext_regions,
        board,
    }
}

/// Renders a random board document for a generated program. The board is
/// architecturally transparent by construction: external RAM covers both
/// per-stream data bands at the drawn bus latency (a [`PeripheralBus`]
/// returns junk for unmapped addresses, so every word the comparison
/// sweep reads must be backed), and the decorative devices live above
/// the program's address ranges with no interrupt lines, so nothing they
/// do is visible to the reference interpreter.
///
/// [`PeripheralBus`]: disc_bus::PeripheralBus
fn gen_board(rng: &mut SplitMix64, streams: usize, ext_latency: u32) -> String {
    let mut doc = String::from("name = \"fuzz board\"\n");
    let span = streams as u16 * EXT_STRIDE;
    for base in [EXT_LO_BASE, EXT_HI_BASE] {
        let _ = write!(
            doc,
            "\n[[peripheral]]\nkind = \"ext-ram\"\nbase = {base:#x}\n\
             words = {span:#x}\nlatency = {ext_latency}\n"
        );
    }
    for i in 0..rng.range(0, 2) {
        let base = 0xa000u16 + i as u16 * 0x40;
        let _ = write!(doc, "\n[[peripheral]]\nbase = {base:#x}\n");
        let _ = match rng.below(6) {
            0 => write!(doc, "kind = \"actuator\"\nlatency = {}\n", rng.range(1, 8)),
            1 => write!(doc, "kind = \"uart\"\nword_cycles = {}\n", rng.range(1, 16)),
            2 => write!(
                doc,
                "kind = \"sensor\"\nperiod = {}\nlatency = {}\namp = {}\n",
                rng.range(16, 64),
                rng.range(1, 4),
                rng.below(0x1000)
            ),
            3 => write!(
                doc,
                "kind = \"storage\"\nblocks = {}\nblock_words = {}\n\
                 read_latency = {}\nwrite_latency = {}\n",
                rng.range(1, 4),
                rng.range(4, 16),
                rng.range(1, 32),
                rng.range(1, 32)
            ),
            // An idle DMA engine still registers as a bus master, so its
            // presence exercises the arbitration path.
            4 => write!(doc, "kind = \"dma\"\nword_latency = {}\n", rng.range(1, 8)),
            _ => write!(
                doc,
                "kind = \"packet\"\nseed = {}\ninterval = {}\nmean = {}\n",
                rng.below(1 << 32),
                rng.range(16, 128),
                rng.pick(&["0.5", "1.0", "1.5", "2.0"])
            ),
        };
    }
    doc
}

// ---- differential runner ------------------------------------------------

/// Trace sink collecting the machine's per-stream retire order.
struct RetireLog {
    per_stream: Vec<Vec<u16>>,
}

impl TraceSink for RetireLog {
    fn record_cycle(&mut self, record: CycleRecord) {
        for event in &record.events {
            if let TraceEvent::Retire { stream, pc } = event {
                self.per_stream[*stream].push(*pc);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A confirmed difference between the two models.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the generated program.
    pub seed: u64,
    /// What differed, field by field.
    pub details: Vec<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "seed {:#x} diverged:", self.seed)?;
        for d in &self.details {
            writeln!(f, "  - {d}")?;
        }
        Ok(())
    }
}

fn machine_config(gp: &GenProgram) -> MachineConfig {
    let mut cfg = MachineConfig::disc1()
        .with_streams(gp.streams)
        .with_window_depth(gp.window_depth)
        .with_default_ext_latency(gp.ext_latency)
        .with_step_mode(gp.step_mode)
        .with_dispatch_mode(gp.dispatch_mode);
    cfg.pipeline_depth = gp.pipeline_depth;
    if let Some(table) = &gp.schedule {
        cfg = cfg.with_schedule(SchedulePolicy::Sequence(table.clone()));
    }
    cfg
}

fn ref_config(gp: &GenProgram) -> RefConfig {
    RefConfig::disc1().with_streams(gp.streams)
}

/// Builds a machine for `gp` under `cfg`, honoring the board knob: when
/// a board document was drawn, a freshly built (and therefore
/// deterministic) copy of its peripheral bus replaces the flat default
/// bus. Every machine the runner constructs for one test case must come
/// through here — snapshots only restore across identically shaped
/// buses.
pub fn build_machine(gp: &GenProgram, cfg: MachineConfig) -> Machine {
    match &gp.board {
        Some(doc) => {
            let board = Board::parse(doc).expect("generated boards are valid by construction");
            let bus = board
                .build_bus()
                .expect("generated boards always map peripherals");
            Machine::with_bus(cfg, &gp.program, bus)
        }
        None => Machine::new(cfg, &gp.program),
    }
}

/// Runs `gp` on both models under the given budgets and compares the
/// final architectural state. `Ok(steps)` reports the instructions the
/// reference model executed.
pub fn compare_with_budget(
    gp: &GenProgram,
    machine_cycles: u64,
    ref_steps: u64,
) -> Result<u64, Divergence> {
    let mut details = Vec::new();

    let mut machine = build_machine(gp, machine_config(gp));
    machine.set_trace_sink(Box::new(RetireLog {
        per_stream: vec![Vec::new(); gp.streams],
    }));
    let m_exit = machine.run(machine_cycles);
    let retire_log = machine
        .take_trace_sink()
        .and_then(|sink| sink.into_any().downcast::<RetireLog>().ok())
        .expect("retire log sink");

    // When the timing knob drew EventSkip or the dispatch knob drew
    // Superblock, the primary machine above had both fast paths pinned
    // off by its trace sink; run a second, sink-free machine where they
    // can engage and hold it to the same exit, statistics (including
    // cycle attribution) and final state.
    let cross_check =
        gp.step_mode == StepMode::EventSkip || gp.dispatch_mode == DispatchMode::Superblock;
    let skipper = cross_check.then(|| {
        let mut skipper = build_machine(gp, machine_config(gp));
        let exit = skipper.run(machine_cycles);
        (skipper, exit)
    });

    let mut reference = RefMachine::new(ref_config(gp), &gp.program);
    let r_exit = reference.run(ref_steps);
    let steps = reference.steps();

    // Exit status. Budget exhaustion on either side is a divergence by
    // definition: generated programs are termination-bounded.
    let exits_match = matches!(
        (&m_exit, r_exit),
        (Ok(Exit::Halted), RefExit::Halted) | (Ok(Exit::AllIdle), RefExit::AllIdle)
    );
    if !exits_match {
        details.push(format!(
            "exit status: machine {m_exit:?} vs reference {r_exit:?}"
        ));
        return Err(Divergence {
            seed: gp.seed,
            details,
        });
    }

    let ext_addrs = ext_addr_set(gp, &reference);
    diff_against_reference(
        &mut machine,
        &retire_log,
        &reference,
        gp,
        &ext_addrs,
        &mut details,
    );

    // Sink-free cross-check (event skip and/or superblock dispatch
    // engaged): must be indistinguishable from the pinned run.
    if let Some((mut skipper, s_exit)) = skipper {
        if s_exit != m_exit {
            details.push(format!(
                "sink-free: exit {s_exit:?} vs cycle-by-cycle {m_exit:?}"
            ));
        }
        diff_machines(
            "sink-free",
            &mut machine,
            &mut skipper,
            gp.streams,
            reference.internal_len() as u16,
            &ext_addrs,
            &mut details,
        );
    }

    if details.is_empty() {
        Ok(steps)
    } else {
        Err(Divergence {
            seed: gp.seed,
            details,
        })
    }
}

/// Runs `gp` with the default budgets.
pub fn compare(gp: &GenProgram) -> Result<u64, Divergence> {
    compare_with_budget(gp, MACHINE_CYCLES, REF_STEPS)
}

/// Generates and compares one seed.
pub fn check_seed(seed: u64) -> Result<u64, Divergence> {
    compare(&generate(seed))
}

/// Every external address either model may have touched.
fn ext_addr_set(gp: &GenProgram, reference: &RefMachine) -> BTreeSet<u16> {
    let mut ext_addrs: BTreeSet<u16> = reference.external_addrs().into_iter().collect();
    for &(lo, hi) in &gp.ext_regions {
        ext_addrs.extend(lo..hi);
    }
    ext_addrs
}

/// Field-by-field comparison of the machine's final architectural state
/// against the reference interpreter's; mismatches append to `details`.
fn diff_against_reference(
    machine: &mut Machine,
    retire_log: &RetireLog,
    reference: &RefMachine,
    gp: &GenProgram,
    ext_addrs: &BTreeSet<u16>,
    details: &mut Vec<String>,
) {
    for s in 0..gp.streams {
        let m_retired = machine.stats().retired[s];
        let log = &retire_log.per_stream[s];
        if m_retired != log.len() as u64 {
            details.push(format!(
                "stream {s}: machine retire counter {m_retired} disagrees with its own trace ({})",
                log.len()
            ));
        }
        if m_retired != reference.retired(s) {
            details.push(format!(
                "stream {s}: retired {m_retired} vs reference {}",
                reference.retired(s)
            ));
        }
        if gp.exact && log.as_slice() != reference.retired_pcs(s) {
            let min = log
                .iter()
                .zip(reference.retired_pcs(s))
                .take_while(|(a, b)| a == b)
                .count();
            details.push(format!(
                "stream {s}: retire order first differs at instruction {min} \
                 (machine {:?}…, reference {:?}…)",
                log.get(min),
                reference.retired_pcs(s).get(min)
            ));
        }
        let st = machine.stream(s);
        if st.ir() != reference.ir(s) {
            details.push(format!(
                "stream {s}: ir {:#04x} vs {:#04x}",
                st.ir(),
                reference.ir(s)
            ));
        }
        if st.mr() != reference.mr(s) {
            details.push(format!(
                "stream {s}: mr {:#04x} vs {:#04x}",
                st.mr(),
                reference.mr(s)
            ));
        }
        if st.flags().to_word() != reference.flags_word(s) {
            details.push(format!(
                "stream {s}: flags {:#x} vs {:#x}",
                st.flags().to_word(),
                reference.flags_word(s)
            ));
        }
        if st.service_depth() != reference.service_depth(s)
            || st.service_level() != reference.service_level(s)
        {
            details.push(format!(
                "stream {s}: service depth/level {}/{} vs {}/{}",
                st.service_depth(),
                st.service_level(),
                reference.service_depth(s),
                reference.service_level(s)
            ));
        }
        let m_window = st.window();
        if m_window.awp() != reference.awp(s) {
            details.push(format!(
                "stream {s}: awp {} vs {}",
                m_window.awp(),
                reference.awp(s)
            ));
        }
        let depth = m_window.max_depth().max(reference.max_window_depth(s));
        for slot in 0..depth {
            if m_window.read_slot(slot) != reference.window_slot(s, slot) {
                details.push(format!(
                    "stream {s}: window slot {slot}: {:#06x} vs {:#06x}",
                    m_window.read_slot(slot),
                    reference.window_slot(s, slot)
                ));
            }
        }
        let m_sp = machine.reg(s, Reg::Sp);
        if m_sp != reference.sp(s) {
            details.push(format!(
                "stream {s}: sp {m_sp:#06x} vs {:#06x}",
                reference.sp(s)
            ));
        }
        // PCs are only architecturally pinned for parked (inactive)
        // streams; an active stream's machine PC includes fetch-ahead.
        if !st.active() && !reference.active(s) && st.pc() != reference.pc(s) {
            details.push(format!(
                "stream {s}: parked pc {:#06x} vs {:#06x}",
                st.pc(),
                reference.pc(s)
            ));
        }
    }

    for g in 0..disc_isa::GLOBAL_REGS {
        if machine.global(g) != reference.global(g) {
            details.push(format!(
                "global g{g}: {:#06x} vs {:#06x}",
                machine.global(g),
                reference.global(g)
            ));
        }
    }

    for addr in 0..reference.internal_len() as u16 {
        if machine.internal_memory().read(addr) != reference.internal(addr) {
            details.push(format!(
                "internal[{addr:#x}]: {:#06x} vs {:#06x}",
                machine.internal_memory().read(addr),
                reference.internal(addr)
            ));
        }
    }

    for &addr in ext_addrs {
        let m_val = machine.bus_mut().read(addr);
        if m_val != reference.external(addr) {
            details.push(format!(
                "external[{addr:#x}]: {m_val:#06x} vs {:#06x}",
                reference.external(addr)
            ));
        }
    }
}

/// Compares two machines' complete final states — statistics (cycle
/// attribution included), per-stream control state, window stacks, `sp`,
/// globals, internal and touched external memory. Mismatches append to
/// `details`, prefixed with `label`; the second machine of each reported
/// pair is `expected`.
pub fn diff_machines(
    label: &str,
    expected: &mut Machine,
    candidate: &mut Machine,
    streams: usize,
    internal_len: u16,
    ext_addrs: &BTreeSet<u16>,
    details: &mut Vec<String>,
) {
    if candidate.stats() != expected.stats() {
        details.push(format!(
            "{label}: stats diverge:\n    got   {:?}\n    exact {:?}",
            candidate.stats(),
            expected.stats()
        ));
    }
    for s in 0..streams {
        let a = expected.stream(s);
        let b = candidate.stream(s);
        let ctl = |st: &disc_core::Stream| {
            (
                st.pc(),
                st.ir(),
                st.mr(),
                st.flags().to_word(),
                st.service_depth(),
                st.service_level(),
                st.window().awp(),
            )
        };
        if ctl(a) != ctl(b) {
            details.push(format!(
                "{label}: stream {s} control state {:?} vs {:?}",
                ctl(b),
                ctl(a)
            ));
        }
        for slot in 0..a.window().max_depth() {
            if a.window().read_slot(slot) != b.window().read_slot(slot) {
                details.push(format!(
                    "{label}: stream {s} window slot {slot}: {:#06x} vs {:#06x}",
                    b.window().read_slot(slot),
                    a.window().read_slot(slot)
                ));
            }
        }
        if expected.reg(s, Reg::Sp) != candidate.reg(s, Reg::Sp) {
            details.push(format!(
                "{label}: stream {s} sp {:#06x} vs {:#06x}",
                candidate.reg(s, Reg::Sp),
                expected.reg(s, Reg::Sp)
            ));
        }
    }
    for g in 0..disc_isa::GLOBAL_REGS {
        if expected.global(g) != candidate.global(g) {
            details.push(format!(
                "{label}: global g{g}: {:#06x} vs {:#06x}",
                candidate.global(g),
                expected.global(g)
            ));
        }
    }
    for addr in 0..internal_len {
        if expected.internal_memory().read(addr) != candidate.internal_memory().read(addr) {
            details.push(format!(
                "{label}: internal[{addr:#x}]: {:#06x} vs {:#06x}",
                candidate.internal_memory().read(addr),
                expected.internal_memory().read(addr)
            ));
        }
    }
    for &addr in ext_addrs {
        if expected.bus_mut().read(addr) != candidate.bus_mut().read(addr) {
            details.push(format!("{label}: external[{addr:#x}] diverges"));
        }
    }
}

// ---- fork-based mode coverage -------------------------------------------

/// Cycles the shared warm-up phase runs before the fork snapshot is
/// taken. Small on purpose: generated programs are short, and the forks
/// must re-execute most of each program under their own timing modes for
/// the coverage to mean anything.
pub const WARM_CYCLES: u64 = 256;

/// Every step-mode × dispatch-mode combination the machine supports.
pub const MODE_COMBOS: [(StepMode, DispatchMode); 4] = [
    (StepMode::CycleByCycle, DispatchMode::Legacy),
    (StepMode::CycleByCycle, DispatchMode::Superblock),
    (StepMode::EventSkip, DispatchMode::Legacy),
    (StepMode::EventSkip, DispatchMode::Superblock),
];

/// A fork-mode fuzz failure: the divergence plus everything needed to
/// reproduce it without re-running the campaign — the generated program
/// and its knobs, the warm-point snapshot the forks started from, and the
/// base machine's final state for a one-invocation `replay` check.
#[derive(Debug)]
pub struct ForkFailure {
    /// What differed, per [`compare_with_budget`]'s conventions.
    pub divergence: Divergence,
    /// The generated test case (program image + microarchitecture knobs).
    pub gp: GenProgram,
    /// Snapshot at the shared warm point (the "pre-divergence" state).
    pub snapshot: Vec<u8>,
    /// Cycle the base machine finished at.
    pub end_cycle: u64,
    /// The base machine's final snapshot.
    pub final_snapshot: Vec<u8>,
}

fn fork_failure(
    gp: &GenProgram,
    details: Vec<String>,
    snapshot: Vec<u8>,
    machine: &Machine,
) -> Box<ForkFailure> {
    Box::new(ForkFailure {
        divergence: Divergence {
            seed: gp.seed,
            details,
        },
        gp: gp.clone(),
        snapshot,
        end_cycle: machine.stats().cycles,
        final_snapshot: machine.snapshot(),
    })
}

/// Fork-based differential check: generates and warms up **once** per
/// seed, snapshots, and forks a machine per [`MODE_COMBOS`] entry from
/// the shared warm point instead of re-executing every mode from cold.
///
/// The base machine (pinned cycle-by-cycle, legacy dispatch, retire-log
/// sink) runs to completion and is compared field by field against the
/// `disc-ref` interpreter exactly like [`compare_with_budget`]; each fork
/// then runs only the post-snapshot tail under its own timing mode and
/// must land on the identical final state and statistics. The
/// `(CycleByCycle, Legacy)` fork doubles as a restore-fidelity check —
/// it re-executes the base tail from the snapshot and must agree.
pub fn compare_forked(gp: &GenProgram) -> Result<u64, Box<ForkFailure>> {
    let mut details = Vec::new();

    let base_cfg = machine_config(gp)
        .with_step_mode(StepMode::CycleByCycle)
        .with_dispatch_mode(DispatchMode::Legacy);
    let mut machine = build_machine(gp, base_cfg);
    machine.set_trace_sink(Box::new(RetireLog {
        per_stream: vec![Vec::new(); gp.streams],
    }));
    let warm_exit = machine.run(WARM_CYCLES.min(MACHINE_CYCLES));
    let snapshot = machine.snapshot();
    let m_exit = match warm_exit {
        Ok(Exit::CycleLimit) => machine.run(MACHINE_CYCLES - WARM_CYCLES.min(MACHINE_CYCLES)),
        other => other,
    };
    let retire_log = machine
        .take_trace_sink()
        .and_then(|sink| sink.into_any().downcast::<RetireLog>().ok())
        .expect("retire log sink");

    let mut reference = RefMachine::new(ref_config(gp), &gp.program);
    let r_exit = reference.run(REF_STEPS);
    let steps = reference.steps();

    let exits_match = matches!(
        (&m_exit, r_exit),
        (Ok(Exit::Halted), RefExit::Halted) | (Ok(Exit::AllIdle), RefExit::AllIdle)
    );
    if !exits_match {
        details.push(format!(
            "exit status: machine {m_exit:?} vs reference {r_exit:?}"
        ));
        return Err(fork_failure(gp, details, snapshot, &machine));
    }

    let ext_addrs = ext_addr_set(gp, &reference);
    diff_against_reference(
        &mut machine,
        &retire_log,
        &reference,
        gp,
        &ext_addrs,
        &mut details,
    );

    for (step, dispatch) in MODE_COMBOS {
        let cfg = machine_config(gp)
            .with_step_mode(step)
            .with_dispatch_mode(dispatch);
        let mut fork = build_machine(gp, cfg);
        if let Err(e) = fork.restore(&snapshot) {
            details.push(format!("fork {step:?}/{dispatch:?}: restore failed: {e}"));
            continue;
        }
        let f_exit = fork.run(MACHINE_CYCLES);
        if f_exit != m_exit {
            details.push(format!(
                "fork {step:?}/{dispatch:?}: exit {f_exit:?} vs base {m_exit:?}"
            ));
        }
        diff_machines(
            &format!("fork {step:?}/{dispatch:?}"),
            &mut machine,
            &mut fork,
            gp.streams,
            reference.internal_len() as u16,
            &ext_addrs,
            &mut details,
        );
    }

    if details.is_empty() {
        Ok(steps)
    } else {
        Err(fork_failure(gp, details, snapshot, &machine))
    }
}

/// Generates and fork-checks one seed.
///
/// # Errors
///
/// Returns the [`ForkFailure`] when any mode combo or the reference
/// comparison diverges.
pub fn fork_check_seed(seed: u64) -> Result<u64, Box<ForkFailure>> {
    compare_forked(&generate(seed))
}

/// Writes a crash-artifact pair for a fork-mode failure into `dir`:
/// `seed-<hex>.replay`, a `disc-replay/v1` log whose starting snapshot is
/// the pre-divergence warm point (so the failure reproduces in one
/// `replay` invocation), and `seed-<hex>.txt` with the seed, every
/// generator knob and the divergence details. Returns the path stem.
///
/// # Errors
///
/// Propagates filesystem errors from creating `dir` or writing the files.
pub fn write_artifact(dir: &Path, failure: &ForkFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let gp = &failure.gp;
    let stem = dir.join(format!("seed-{:016x}", failure.divergence.seed));
    // A `.replay` log only reproduces on the flat default bus: `replay`
    // rebuilds the machine from config + program alone, and a snapshot
    // taken on a board's peripheral bus refuses to restore there. Board
    // cases get the board document on disk instead; the seed regenerates
    // the full case either way.
    if gp.board.is_none() {
        let log = ReplayLog {
            config: machine_config(gp)
                .with_step_mode(StepMode::CycleByCycle)
                .with_dispatch_mode(DispatchMode::Legacy),
            program: gp.program.clone(),
            start: failure.snapshot.clone(),
            events: Vec::new(),
            end_cycle: failure.end_cycle,
            final_snapshot: failure.final_snapshot.clone(),
        };
        std::fs::write(stem.with_extension("replay"), log.save())?;
    }
    if let Some(board) = &gp.board {
        std::fs::write(stem.with_extension("board"), board)?;
    }

    let mut txt = String::new();
    let _ = writeln!(txt, "seed: {:#x}", gp.seed);
    let _ = writeln!(
        txt,
        "streams: {} (exact retire-order comparison: {})",
        gp.streams, gp.exact
    );
    let _ = writeln!(
        txt,
        "pipeline_depth: {}  window_depth: {}  ext_latency: {}",
        gp.pipeline_depth, gp.window_depth, gp.ext_latency
    );
    let _ = writeln!(txt, "schedule: {:?}", gp.schedule);
    let _ = writeln!(
        txt,
        "drawn step_mode: {:?}  dispatch_mode: {:?}",
        gp.step_mode, gp.dispatch_mode
    );
    let _ = writeln!(
        txt,
        "board: {}",
        match &gp.board {
            Some(_) => "drawn (peripheral bus; document in the .board file)",
            None => "none (flat bus)",
        }
    );
    let _ = writeln!(
        txt,
        "warm-point snapshot taken after at most {WARM_CYCLES} cycles; \
         base machine finished at cycle {}",
        failure.end_cycle
    );
    let _ = writeln!(txt);
    let _ = write!(txt, "{}", failure.divergence);
    let _ = writeln!(txt, "\nreproduce:");
    let _ = writeln!(
        txt,
        "  cargo run -p disc-bench --bin fuzz -- --fork --no-corpus --seed {:#x} --count 1",
        gp.seed
    );
    if gp.board.is_none() {
        let _ = writeln!(
            txt,
            "  cargo run -p disc-bench --bin replay -- {}",
            stem.with_extension("replay").display()
        );
    }
    std::fs::write(stem.with_extension("txt"), txt)?;
    Ok(stem)
}

fn write_panic_artifact(dir: &Path, seed: u64, msg: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed-{seed:016x}.txt"));
    std::fs::write(
        path,
        format!(
            "seed: {seed:#x}\nworker panicked: {msg}\n\nreproduce:\n  \
             cargo run -p disc-bench --bin fuzz -- --fork --no-corpus \
             --seed {seed:#x} --count 1\n"
        ),
    )
}

/// Fork-mode campaign: like [`run_campaign`], but each seed is checked
/// through [`fork_check_seed`] — generate and warm up once, fork per mode
/// combo — and any failure (divergence or worker panic) leaves a crash
/// artifact in `artifact_dir` via [`write_artifact`]. A panic yields a
/// knobs-only artifact: no pre-divergence snapshot survives an unwound
/// worker, but the seed alone regenerates the case.
pub fn run_campaign_forked(
    extra_seeds: &[u64],
    base_seed: u64,
    count: u64,
    artifact_dir: Option<&Path>,
) -> CampaignReport {
    let mut seeds: Vec<u64> = extra_seeds.to_vec();
    seeds.extend((0..count).map(|i| base_seed.wrapping_add(i)));
    let results = disc_par::par_map(seeds, |seed| {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fork_check_seed(seed)));
        match outcome {
            Ok(Ok(steps)) => Ok(steps),
            Ok(Err(failure)) => {
                let mut div = failure.divergence.clone();
                if let Some(dir) = artifact_dir {
                    match write_artifact(dir, &failure) {
                        Ok(stem) => div
                            .details
                            .push(format!("artifact: {}.replay", stem.display())),
                        Err(e) => div.details.push(format!("artifact write failed: {e}")),
                    }
                }
                Err(div)
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                let mut details = vec![format!("worker panicked: {msg}")];
                if let Some(dir) = artifact_dir {
                    if let Err(e) = write_panic_artifact(dir, seed, msg) {
                        details.push(format!("artifact write failed: {e}"));
                    }
                }
                Err(Divergence { seed, details })
            }
        }
    });
    let mut report = CampaignReport::default();
    for outcome in results {
        report.programs += 1;
        match outcome {
            Ok(steps) => report.instructions += steps,
            Err(div) => report.divergences.push(div),
        }
    }
    report
}

// ---- minimization -------------------------------------------------------

/// Shrinks a diverging program by nopping out instructions to a fixed
/// point: an instruction stays nopped only while the divergence persists.
/// Returns the minimized test case.
pub fn minimize(gp: &GenProgram) -> GenProgram {
    let nop = encode(&Instruction::Nop);
    let mut current = gp.clone();
    if compare(&current).is_ok() {
        return current;
    }
    loop {
        let mut changed = false;
        let len = current.program.len() as u16;
        for addr in 0..len {
            if current.program.word(addr) == nop {
                continue;
            }
            let mut candidate = current.clone();
            candidate.program.set_word(addr, nop);
            // Keep the candidate only for a *usable* divergence: nopping
            // out a terminator can send the reference itself past its
            // step budget, which is a shrinking artifact, not the bug.
            if matches!(compare(&candidate), Err(d) if divergence_is_usable(&d)) {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            return current;
        }
    }
}

/// A divergence worth shrinking toward: not a reference-side budget
/// exhaustion (which usually means the shrink destroyed termination).
fn divergence_is_usable(d: &Divergence) -> bool {
    !d.details.iter().any(|line| line.contains("StepLimit"))
}

/// Disassembly of the non-`nop` words of a (typically minimized) program.
pub fn sparse_listing(program: &Program) -> String {
    let nop = encode(&Instruction::Nop);
    let mut out = String::new();
    for (addr, word) in program.iter() {
        if word == nop {
            continue;
        }
        let _ = writeln!(out, "{addr:#06x}: {}", disc_isa::disasm::format_word(word));
    }
    out
}

// ---- campaign driver ----------------------------------------------------

/// Outcome of a fuzz campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Programs compared.
    pub programs: u64,
    /// Reference instructions executed (architectural work covered).
    pub instructions: u64,
    /// Divergent seeds, in the order found.
    pub divergences: Vec<Divergence>,
}

impl CampaignReport {
    /// `true` when every program matched.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Compares `count` seeds starting at `base_seed`, fanned out over
/// `disc-par` workers, plus every explicit seed in `extra_seeds` first.
pub fn run_campaign(extra_seeds: &[u64], base_seed: u64, count: u64) -> CampaignReport {
    let mut seeds: Vec<u64> = extra_seeds.to_vec();
    seeds.extend((0..count).map(|i| base_seed.wrapping_add(i)));
    let results = disc_par::par_map(seeds, |seed| (seed, check_seed(seed)));
    let mut report = CampaignReport::default();
    for (_, outcome) in results {
        report.programs += 1;
        match outcome {
            Ok(steps) => report.instructions += steps,
            Err(div) => report.divergences.push(div),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.program, b.program);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn generated_programs_terminate_and_match() {
        for seed in 0..40 {
            let steps = check_seed(seed).unwrap_or_else(|d| panic!("{d}"));
            assert!(steps > 0, "seed {seed} executed nothing");
        }
    }

    #[test]
    fn seeds_cover_single_and_multi_stream() {
        let mut single = 0;
        let mut multi = 0;
        let mut cross = 0;
        for seed in 0..64 {
            let gp = generate(seed);
            if gp.streams == 1 {
                single += 1;
            } else {
                multi += 1;
            }
            if !gp.exact {
                cross += 1;
            }
        }
        assert!(single > 10 && multi > 10, "{single} single / {multi} multi");
        assert!(cross > 3, "cross-signal programs too rare: {cross}");
    }

    #[test]
    fn minimize_keeps_a_real_divergence() {
        // Manufacture a divergence by corrupting a copy of the machine's
        // input: run the comparison against a program whose entry block
        // differs. Simplest robust check: a program that halts with a
        // known mismatch never minimizes to a matching one.
        let gp = generate(7);
        let min = minimize(&gp);
        // A matching program minimizes to itself (no-op).
        assert_eq!(min.program, gp.program);
    }

    #[test]
    fn sparse_listing_skips_nops() {
        let gp = generate(3);
        let listing = sparse_listing(&gp.program);
        assert!(!listing.is_empty());
        assert!(!listing.contains("nop"));
    }

    #[test]
    fn fork_mode_matches_on_fresh_seeds() {
        for seed in 0..24 {
            let steps = fork_check_seed(seed).unwrap_or_else(|f| panic!("{}", f.divergence));
            assert!(steps > 0, "seed {seed} executed nothing");
        }
    }

    #[test]
    fn corpus_replays_clean_through_fork_mode() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/regressions.txt");
        let text = std::fs::read_to_string(path).expect("corpus readable");
        let seeds: Vec<u64> = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(|l| {
                l.strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| l.parse())
                    .expect("corpus seed parses")
            })
            .collect();
        assert!(!seeds.is_empty(), "corpus has seeds");
        for seed in seeds {
            fork_check_seed(seed).unwrap_or_else(|f| panic!("corpus: {}", f.divergence));
        }
    }

    #[test]
    fn artifacts_reproduce_in_one_replay_invocation() {
        // Manufacture a failure record from a healthy run: the artifact
        // machinery must work regardless of what the divergence was.
        // Replay artifacts only exist for flat-bus cases (a board
        // machine's snapshot cannot restore into the machine `replay`
        // rebuilds), so pin the board knob off.
        let mut gp = generate(5);
        gp.board = None;
        let cfg = machine_config(&gp)
            .with_step_mode(StepMode::CycleByCycle)
            .with_dispatch_mode(DispatchMode::Legacy);
        let mut m = Machine::new(cfg, &gp.program);
        let warm_exit = m.run(WARM_CYCLES);
        let snapshot = m.snapshot();
        if matches!(warm_exit, Ok(Exit::CycleLimit)) {
            m.run(MACHINE_CYCLES).expect("base run");
        }
        let failure = ForkFailure {
            divergence: Divergence {
                seed: gp.seed,
                details: vec!["synthetic failure for the artifact test".into()],
            },
            gp: gp.clone(),
            snapshot,
            end_cycle: m.stats().cycles,
            final_snapshot: m.snapshot(),
        };

        let dir = std::env::temp_dir().join(format!("disc-fuzz-artifacts-{}", std::process::id()));
        let stem = write_artifact(&dir, &failure).expect("artifact written");

        let bytes = std::fs::read(stem.with_extension("replay")).expect("replay file exists");
        let log = ReplayLog::load(&bytes).expect("artifact log loads");
        let replayed = crate::replay::replay(&log, None).expect("artifact replays");
        assert_eq!(
            replayed.snapshot(),
            log.final_snapshot,
            "one replay invocation reproduces the recorded run"
        );

        let notes = std::fs::read_to_string(stem.with_extension("txt")).expect("notes exist");
        assert!(notes.contains("seed: 0x5"));
        assert!(notes.contains("--fork"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn board_case_artifacts_carry_the_board_instead_of_a_replay() {
        // Seed 5 draws a board (pinned by the artifact test above
        // clearing it); its failure artifact must ship the board
        // document, and must not ship a `.replay` that could never
        // restore.
        let gp = generate(5);
        let board = gp.board.clone().expect("seed 5 draws a board");
        let mut m = build_machine(&gp, machine_config(&gp));
        let warm_exit = m.run(WARM_CYCLES);
        let snapshot = m.snapshot();
        if matches!(warm_exit, Ok(Exit::CycleLimit)) {
            m.run(MACHINE_CYCLES).expect("base run");
        }
        let failure = ForkFailure {
            divergence: Divergence {
                seed: gp.seed,
                details: vec!["synthetic failure for the artifact test".into()],
            },
            gp: gp.clone(),
            snapshot,
            end_cycle: m.stats().cycles,
            final_snapshot: m.snapshot(),
        };

        let dir =
            std::env::temp_dir().join(format!("disc-fuzz-board-artifacts-{}", std::process::id()));
        let stem = write_artifact(&dir, &failure).expect("artifact written");

        assert!(!stem.with_extension("replay").exists());
        let written = std::fs::read_to_string(stem.with_extension("board")).expect("board file");
        assert_eq!(written, board);
        let notes = std::fs::read_to_string(stem.with_extension("txt")).expect("notes exist");
        assert!(notes.contains("board: drawn"));
        assert!(!notes.contains("--bin replay"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forked_campaign_reports_like_the_plain_one() {
        let report = run_campaign_forked(&[3], 0, 4, None);
        assert_eq!(report.programs, 5);
        assert!(report.passed(), "divergences: {:?}", report.divergences);
        assert!(report.instructions > 0);
    }
}
