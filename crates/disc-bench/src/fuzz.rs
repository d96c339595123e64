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
//! table, board) and the reference interpreter — and the final
//! architectural state is compared field by field: per-stream window
//! stacks, AWP, `sp`, flags, `ir`/`mr`, service state, retired-instruction
//! counts (and, for programs without cross-stream signals, the exact
//! per-stream retired program-order), plus globals, internal memory and
//! external memory.
//!
//! The same check ([`compare`]) then holds [`Machine::run`] under both
//! step modes ([`MODE_COMBOS`]) to that result twice: once run fresh
//! from cycle 0, and once split at a seed-derived cycle strictly inside
//! the run, snapshotted, restored into a new machine and run to the end
//! (the head machine, run on past the split, must end the same way).
//! That second half is [`check_modes`], the repository's one
//! mode-equivalence check: the `equivalence` test suite holds every
//! board row to it as well, against the plain [`Machine::step`] loop
//! ([`step_to`]) and with host interrupts fed by [`drive`].
//!
//! On mismatch, [`minimize`] nops out instructions to a fixed point while
//! preserving the divergence, so regressions land as one-line seeds plus
//! a small listing.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use disc_board::Board;
use disc_core::{
    CycleRecord, Exit, Machine, MachineConfig, SchedulePolicy, SimError, Status, StepMode,
    TraceEvent, TraceSink,
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
/// the comparison mode it supports. The step mode is not a knob:
/// [`compare`] runs both.
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
    /// External address ranges `[lo, hi)` the program may touch, for the
    /// external-memory comparison sweep.
    pub ext_regions: Vec<(u16, u16)>,
    /// Board document backing the run, or `None` for the machine's
    /// built-in flat external memory (architecturally invisible). When
    /// drawn, every machine the runner builds — the base run and each
    /// step mode's fresh and split runs — gets the board's peripheral
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
    // Two retired draws: the generator once picked a step mode and a
    // dispatch mode here. Consuming them keeps every later draw, and so
    // every corpus seed, generating the same program and board.
    rng.next_u64();
    rng.next_u64();
    // A board can only express mapped latencies of at least one cycle, so
    // seeds that drew latency 0 always keep the flat bus.
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

/// Both step modes: [`check_modes`] holds [`Machine::run`] under each to
/// the slow reference run.
pub const MODE_COMBOS: [StepMode; 2] = [StepMode::CycleByCycle, StepMode::EventSkip];

fn machine_config(gp: &GenProgram, step: StepMode) -> MachineConfig {
    let mut cfg = MachineConfig::disc1()
        .with_streams(gp.streams)
        .with_window_depth(gp.window_depth)
        .with_default_ext_latency(gp.ext_latency)
        .with_step_mode(step);
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

/// What one passing test case covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Instructions the reference interpreter executed.
    pub steps: u64,
    /// Cycles the base machine ran.
    pub cycles: u64,
    /// Cycles each [`MODE_COMBOS`] entry ran after restoring its mid-run
    /// snapshot (all zero for a run under two cycles, which has no cycle
    /// strictly inside it to split at).
    pub tail_cycles: [u64; MODE_COMBOS.len()],
}

/// The cycle `gp.seed`'s split runs snapshot at: in `1..cycles`, so both
/// halves of a run of `cycles` cycles execute at least one cycle.
fn split_point(seed: u64, cycles: u64) -> Option<u64> {
    (cycles >= 2).then(|| 1 + splitmix64(seed) % (cycles - 1))
}

/// Runs `gp` on both models under the given budgets and compares them.
///
/// 1. **Base vs reference.** A machine whose retire-log sink frames
///    every cycle, and so pins both fast paths off, runs to completion;
///    its exit, retire order and final architectural state must match
///    the `disc-ref` interpreter's.
/// 2. **Both step modes, fresh and split.** [`check_modes`] holds
///    `run` under each [`MODE_COMBOS`] entry to the base run: sink-free
///    machines (so event skip and superblock bursts can engage) run
///    fresh from cycle 0, and split at a seed-derived cycle strictly
///    inside the base run, snapshotted and restored into a new machine.
pub fn compare_with_budget(
    gp: &GenProgram,
    machine_cycles: u64,
    ref_steps: u64,
) -> Result<Coverage, Divergence> {
    let mut details = Vec::new();

    let mut machine = build_machine(gp, machine_config(gp, StepMode::CycleByCycle));
    machine.set_trace_sink(Box::new(RetireLog {
        per_stream: vec![Vec::new(); gp.streams],
    }));
    let m_exit = machine.run(machine_cycles);
    let retire_log = machine
        .take_trace_sink()
        .and_then(|sink| sink.into_any().downcast::<RetireLog>().ok())
        .expect("retire log sink");
    let cycles = machine.cycle();

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

    let mut tail_cycles = [0; MODE_COMBOS.len()];
    match check_modes(
        |step| build_machine(gp, machine_config(gp, step)),
        &[],
        machine_cycles,
        split_point(gp.seed, cycles),
        &mut machine,
        &m_exit,
        &ext_addrs,
    ) {
        Ok(runs) => {
            for (tail, run) in tail_cycles.iter_mut().zip(&runs) {
                *tail = run.tail_cycles;
            }
        }
        Err(mode_details) => details.extend(mode_details),
    }

    if details.is_empty() {
        Ok(Coverage {
            steps,
            cycles,
            tail_cycles,
        })
    } else {
        Err(Divergence {
            seed: gp.seed,
            details,
        })
    }
}

/// Runs `gp` with the default budgets. A panic inside the check is
/// caught and reported as a divergence, so one bad seed neither aborts a
/// campaign nor escapes the minimizer.
pub fn compare(gp: &GenProgram) -> Result<Coverage, Divergence> {
    std::panic::catch_unwind(|| compare_with_budget(gp, MACHINE_CYCLES, REF_STEPS)).unwrap_or_else(
        |panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(Divergence {
                seed: gp.seed,
                details: vec![format!("panicked: {msg}")],
            })
        },
    )
}

/// Generates and compares one seed.
pub fn check_seed(seed: u64) -> Result<Coverage, Divergence> {
    compare(&generate(seed))
}

/// Parses one seed: decimal, or hex with a `0x` prefix.
///
/// # Errors
///
/// Returns the parse error for anything else.
pub fn parse_seed(text: &str) -> Result<u64, std::num::ParseIntError> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
}

/// Parses a regression corpus such as `fuzz/regressions.txt`: one seed
/// per line (see [`parse_seed`]); `#` starts a comment and blank lines
/// are skipped.
///
/// # Errors
///
/// Names the first line that holds something other than a seed.
pub fn corpus_seeds(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.split('#').next().unwrap_or("").trim()))
        .filter(|(_, entry)| !entry.is_empty())
        .map(|(n, entry)| parse_seed(entry).map_err(|e| format!("line {n}: {entry:?}: {e}")))
        .collect()
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
///
/// External memory is read through each machine's bus (`bus_mut().read`),
/// which can move bus state that a snapshot includes. A caller that also
/// compares snapshot bytes must take them before calling this.
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

/// Advances `m` to absolute cycle `end`, raising each `(cycle, stream,
/// bit)` host interrupt of `irqs` exactly when the machine reaches its
/// cycle. Returns `Ok(Exit::CycleLimit)` once `m` is at `end`, else the
/// exit that stopped it earlier (halt, all idle, breakpoint or a
/// simulator error). Because `irqs` is keyed by absolute cycle, where a
/// caller cuts its `drive` calls does not change the run.
pub fn drive(m: &mut Machine, end: u64, irqs: &[(u64, usize, u8)]) -> Result<Exit, SimError> {
    drive_with(m, end, irqs, Machine::run)
}

/// [`drive`] through the plain [`Machine::step`] loop, the slow reference
/// every `run` is held to: it neither skips nor bursts, and it stops
/// where `run` would (halt, breakpoint, all idle under the idle exit).
pub fn step_to(m: &mut Machine, end: u64, irqs: &[(u64, usize, u8)]) -> Result<Exit, SimError> {
    // `run`'s own exits, checked where `run` checks them.
    let finished = |m: &Machine| match (m.halted(), m.idle_exit() && m.all_idle()) {
        (true, _) => Some(Exit::Halted),
        (false, idle) => idle.then_some(Exit::AllIdle),
    };
    drive_with(m, end, irqs, |m, cycles| {
        for _ in 0..cycles {
            if let Some(exit) = finished(m) {
                return Ok(exit);
            }
            if let Status::Breakpoint { stream, pc } = m.step()? {
                return Ok(Exit::Breakpoint { stream, pc });
            }
        }
        Ok(finished(m).unwrap_or(Exit::CycleLimit))
    })
}

/// [`drive`] with `advance(m, n)` in place of `m.run(n)`.
fn drive_with(
    m: &mut Machine,
    end: u64,
    irqs: &[(u64, usize, u8)],
    mut advance: impl FnMut(&mut Machine, u64) -> Result<Exit, SimError>,
) -> Result<Exit, SimError> {
    loop {
        let now = m.cycle();
        if now >= end {
            return Ok(Exit::CycleLimit);
        }
        for &(cycle, stream, bit) in irqs {
            if cycle == now {
                m.raise_interrupt(stream, bit);
            }
        }
        let next = irqs
            .iter()
            .map(|&(cycle, _, _)| cycle)
            .filter(|&cycle| cycle > now && cycle < end)
            .min()
            .unwrap_or(end);
        match advance(m, next - now)? {
            Exit::CycleLimit => {}
            exit => return Ok(exit),
        }
    }
}

/// One [`MODE_COMBOS`] entry's runs in [`check_modes`].
pub struct ModeRun {
    /// The step mode `run` used.
    pub step: StepMode,
    /// The machine [`drive`]n fresh from cycle 0 to the end.
    pub fresh: Machine,
    /// Cycles the split-and-restored machine ran after its restore (0
    /// without a split).
    pub tail_cycles: u64,
}

/// The one mode-equivalence check: quiescence skips, superblock bursts
/// and snapshot/restore must not change what a run computes.
///
/// `base` ran the plain [`Machine::step`] loop to `end` under `irqs`
/// ([`step_to`], or a per-cycle sink that pins the fast paths off) and
/// exited `base_exit`. For each [`MODE_COMBOS`] step mode, `build` makes
///
/// 1. a fresh machine, driven from cycle 0 to `end`: it must exit
///    `base_exit` and end [`diff_machines`]-equal to `base` (external
///    memory compared at `ext_addrs`);
/// 2. with `split_at`, a head machine driven to that cycle, which it
///    must reach by cycle limit (cycle 0 is no split): the split lies
///    strictly inside the run. Its snapshot is restored into a new
///    machine, which must snapshot back to the same bytes, run at least
///    one more cycle on its way to `end`, and end with the fresh run's
///    exit and final snapshot bytes. The head machine itself, driven on
///    from the split to `end`, must end the same way: a `run` boundary
///    carries no live state that a one-shot run would not have.
///
/// # Errors
///
/// Every difference, one line each, prefixed with its step mode.
pub fn check_modes(
    build: impl Fn(StepMode) -> Machine,
    irqs: &[(u64, usize, u8)],
    end: u64,
    split_at: Option<u64>,
    base: &mut Machine,
    base_exit: &Result<Exit, SimError>,
    ext_addrs: &BTreeSet<u16>,
) -> Result<Vec<ModeRun>, Vec<String>> {
    let mut details = Vec::new();
    let streams = base.stream_count();
    let internal_len = base.config().internal_words as u16;
    let mut runs = Vec::with_capacity(MODE_COMBOS.len());
    for step in MODE_COMBOS {
        let mut fresh = build(step);
        let f_exit = drive(&mut fresh, end, irqs);
        if f_exit != *base_exit {
            details.push(format!(
                "{step:?} fresh: exit {f_exit:?} vs base {base_exit:?}"
            ));
        }
        let mut tail_cycles = 0;
        if let Some(at) = split_at {
            let label = format!("{step:?} split at cycle {at}");
            let mut head = build(step);
            let head_exit = drive(&mut head, at, irqs);
            let mid = head.snapshot();
            let mut restored = build(step);
            if at == 0 || head_exit != Ok(Exit::CycleLimit) || head.cycle() != at {
                details.push(format!(
                    "{label}: head run ended {head_exit:?} at cycle {}",
                    head.cycle()
                ));
            } else if let Err(e) = restored.restore(&mid) {
                details.push(format!("{label}: restore failed: {e}"));
            } else if restored.snapshot() != mid {
                details.push(format!("{label}: restore is not byte-stable"));
            } else {
                let s_exit = drive(&mut restored, end, irqs);
                let h_exit = drive(&mut head, end, irqs);
                tail_cycles = restored.cycle() - at;
                if tail_cycles == 0 {
                    details.push(format!("{label}: the restored machine ran no cycle"));
                }
                if s_exit != f_exit {
                    details.push(format!("{label}: exit {s_exit:?} vs fresh {f_exit:?}"));
                }
                if h_exit != f_exit {
                    details.push(format!(
                        "{label}: continued head exit {h_exit:?} vs fresh {f_exit:?}"
                    ));
                }
                // Before `diff_machines`, whose bus reads move
                // snapshot-visible state.
                let final_blob = fresh.snapshot();
                if restored.snapshot() != final_blob {
                    details.push(format!(
                        "{label}: final snapshot differs from the fresh run's"
                    ));
                }
                if head.snapshot() != final_blob {
                    details.push(format!(
                        "{label}: continued head's final snapshot differs from the fresh run's"
                    ));
                }
            }
        }
        diff_machines(
            &format!("{step:?} fresh"),
            base,
            &mut fresh,
            streams,
            internal_len,
            ext_addrs,
            &mut details,
        );
        runs.push(ModeRun {
            step,
            fresh,
            tail_cycles,
        });
    }
    if details.is_empty() {
        Ok(runs)
    } else {
        Err(details)
    }
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
    let mut report = CampaignReport::default();
    for outcome in disc_par::par_map(seeds, check_seed) {
        report.programs += 1;
        match outcome {
            Ok(coverage) => report.instructions += coverage.steps,
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
            let coverage = check_seed(seed).unwrap_or_else(|d| panic!("{d}"));
            assert!(coverage.steps > 0, "seed {seed} executed nothing");
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
    fn split_point_lies_strictly_inside_the_run() {
        assert_eq!(split_point(9, 0), None);
        assert_eq!(split_point(9, 1), None);
        assert_eq!(split_point(9, 2), Some(1));
        for seed in 0..256 {
            let at = split_point(seed, 100).expect("long enough to split");
            assert!((1..100).contains(&at), "seed {seed}: split at {at}");
        }
    }

    /// `fig_3_4` halts at cycle 32: a split at cycle 1600 would snapshot
    /// a halted machine and restore one that runs nothing, so the check
    /// must reject it in both step modes, and accept a split inside the
    /// run.
    #[test]
    fn check_modes_rejects_a_split_past_the_end_of_the_run() {
        let board = crate::board("fig_3_4");
        let build = |step| crate::machine_in(&board, step);
        let mut base = board.machine().unwrap();
        let exit = step_to(&mut base, 4_000, &[]);
        assert_eq!((exit.clone(), base.cycle()), (Ok(Exit::Halted), 32));
        let none = BTreeSet::new();
        let details = check_modes(build, &[], 4_000, Some(1_600), &mut base, &exit, &none)
            .err()
            .expect("a split past the halt is rejected");
        assert_eq!(details.len(), MODE_COMBOS.len(), "{details:#?}");
        assert!(details.iter().all(|d| d.contains("head run ended")));
        let runs = check_modes(build, &[], 4_000, Some(12), &mut base, &exit, &none)
            .unwrap_or_else(|d| panic!("{d:#?}"));
        assert!(runs.iter().all(|run| run.tail_cycles == 20));
    }

    #[test]
    fn corpus_seeds_reads_comments_hex_and_decimal() {
        let text = "# header\n\n0x1d   # hex\n42\n  0xB # upper-case hex\n";
        assert_eq!(corpus_seeds(text), Ok(vec![0x1d, 42, 0xb]));
        let err = corpus_seeds("7\n0xzz # typo\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn campaign_runs_extra_seeds_then_the_block() {
        let report = run_campaign(&[3], 0, 4);
        assert_eq!(report.programs, 5);
        assert!(report.passed(), "divergences: {:?}", report.divergences);
        assert!(report.instructions > 0);
    }
}
