//! The cycle-accurate DISC1 machine.
//!
//! Each cycle the machine:
//!
//! 1. ticks the external bus (peripherals may raise interrupts) and the
//!    asynchronous bus interface (a completing transaction delivers data
//!    and re-activates waiting streams). The bus tick is lazy: it runs
//!    only on the cycle the bus's next event falls due, and the quiet
//!    cycles before it are settled with one `advance` before the bus is
//!    next accessed;
//! 2. advances the pipeline, retiring the instruction in the write stage;
//! 3. executes the instruction that just reached the EX stage
//!    (next-to-last), resolving jumps (which flush younger same-stream
//!    slots), issuing external accesses, adjusting stack windows and
//!    performing stream control;
//! 4. lets the hardware scheduler pick a ready stream and fetches its next
//!    instruction — taking a pending vectored interrupt first when the
//!    stream has no unexecuted instructions in flight.
//!
//! A stream is **ready** when it is active (some unmasked IR bit set), not
//! waiting on the bus, not stalled by window spill traffic, and its next
//! instruction has no data hazard against the stream's own in-flight
//! instructions. Slots freed by not-ready streams are dynamically
//! reallocated by the scheduler — the defining DISC property.

use disc_isa::{AluOp, AwpMode, Cond, Instruction, Program, Reg};
use disc_snap::{splitmix64, SnapError, SnapReader, SnapWriter};

use crate::abi::{Abi, BusOp, RegTarget, Transaction};
use crate::alu::{alu, eval_cond, imm_op};
use crate::config::{BusFaultPolicy, DispatchMode, MachineConfig, StepMode};
use crate::databus::{DataBus, FlatBus, IrqRequest};
use crate::error::{Exit, SimError};
use crate::intmem::InternalMemory;
use crate::scheduler::Scheduler;
use crate::stats::{MachineStats, SkipStats, SuperblockStats};
use crate::stream::{Flags, PendingWrite, ServiceFrame, Stream, WaitState};
use crate::trace::{BusFaultKind, CycleRecord, StageSnapshot, Trace, TraceEvent, TraceSink};

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The machine is still running.
    Running,
    /// A `halt` instruction executed this cycle.
    Halted,
    /// A `brk` instruction executed this cycle; stepping may continue.
    Breakpoint {
        /// Stream that executed the breakpoint.
        stream: usize,
        /// Address of the `brk` instruction.
        pc: u16,
    },
}

/// Result of one [`Machine::run_chunk`] scheduling quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRun {
    /// Why the chunk ended.
    pub exit: Exit,
    /// Cycles that actually elapsed in this chunk (at most the budget;
    /// less when the machine halted, hit a breakpoint or went idle).
    pub cycles: u64,
}

/// Pseudo-register bit used in hazard masks to represent the flags.
const FLAG_BIT: u32 = 1 << 16;
/// Mask selecting the window registers `R0..R7`.
const WINDOW_MASK: u32 = 0xff;
/// Scoreboard tag for entries owned by an outstanding bus transaction.
const BUS_SEQ: u64 = u64::MAX;

/// Fixed pipe-ring capacity: [`MachineConfig::validate`] caps
/// `pipeline_depth` at 8, so the backing array never needs to grow and
/// stage indexing avoids a heap indirection.
const MAX_PIPE: usize = 8;

/// A superblock attempt that covered fewer cycles than this is considered
/// a miss: the machine is in a burst-hostile state (bus traffic, waits,
/// unsafe in-flight ops) and re-probing eligibility every cycle would cost
/// more than it saves.
const BURST_RETRY_FLOOR: u64 = 64;

/// Number of slow-path steps to run after a superblock miss before probing
/// eligibility again.
const BURST_BACKOFF: u64 = 64;

/// Why a pipeline flush happened; resolved to the trace-facing string only
/// when an event record is actually emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    Jump,
    Io,
    Irq,
    BusBusy,
}

impl FlushCause {
    fn as_str(self) -> &'static str {
        match self {
            FlushCause::Jump => "jump",
            FlushCause::Io => "io",
            FlushCause::Irq => "irq",
            FlushCause::BusBusy => "bus-busy",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    stream: usize,
    pc: u16,
    instr: Instruction,
    seq: u64,
    moves_window: bool,
    /// Handler index into [`HANDLERS`], predecoded at fetch.
    kind: u8,
}

fn reg_bit(r: Reg) -> u32 {
    1 << r.index()
}

/// Bitmask of registers (and flags) read by `instr`.
fn source_mask(instr: &Instruction) -> u32 {
    let mut m = 0;
    for r in instr.sources() {
        m |= reg_bit(r);
        if r == Reg::Sr {
            m |= FLAG_BIT;
        }
    }
    match instr {
        Instruction::Jmp { cond, .. } if *cond != Cond::Always => m |= FLAG_BIT,
        Instruction::Ret { .. } => m |= reg_bit(Reg::R0),
        Instruction::Alu {
            op: AluOp::Adc | AluOp::Sbc,
            ..
        } => m |= FLAG_BIT,
        _ => {}
    }
    m
}

/// Bitmask of registers (and flags) written by `instr`.
fn dest_mask(instr: &Instruction) -> u32 {
    let mut m = 0;
    if let Some(r) = instr.destination() {
        m |= reg_bit(r);
        if r == Reg::Sr {
            m |= FLAG_BIT;
        }
    }
    match instr {
        Instruction::Alu { .. } | Instruction::AluImm { .. } => m |= FLAG_BIT,
        Instruction::Call { .. } => m |= reg_bit(Reg::R0),
        _ => {}
    }
    m
}

/// `true` when the next instruction of a stream (predecoded as `e`) has a
/// hazard against the stream's own in-flight instructions.
fn stream_hazard_entry(st: &Stream, e: &OpEntry) -> bool {
    if st.window_moves > 0 && e.touches_window {
        return true;
    }
    // RAW only: writes retire in program order through the single EX
    // stage, so WAW/WAR need no interlock.
    st.pending_conflict(e.src_mask)
}

/// `true` when the instruction reads/writes window registers or moves the
/// window, so it conflicts with any in-flight window motion.
fn touches_window(instr: &Instruction) -> bool {
    instr.awp_mode() != AwpMode::None
        || (source_mask(instr) | dest_mask(instr)) & WINDOW_MASK != 0
        || matches!(
            instr,
            Instruction::Call { .. }
                | Instruction::Ret { .. }
                | Instruction::Reti
                | Instruction::Winc { .. }
                | Instruction::Wdec { .. }
        )
}

/// `true` when the instruction moves the AWP (and therefore renames the
/// visible window registers while in flight).
fn moves_window(instr: &Instruction) -> bool {
    instr.awp_mode() != AwpMode::None
        || matches!(
            instr,
            Instruction::Call { .. }
                | Instruction::Ret { .. }
                | Instruction::Winc { .. }
                | Instruction::Wdec { .. }
        )
}

// Handler indices of the threaded dispatch table, one per instruction
// form plus a pseudo-kind for words that do not decode.
const K_NOP: u8 = 0;
const K_ALU: u8 = 1;
const K_ALU_IMM: u8 = 2;
const K_LDI: u8 = 3;
const K_LUI: u8 = 4;
const K_LD: u8 = 5;
const K_LDA: u8 = 6;
const K_ST: u8 = 7;
const K_STA: u8 = 8;
const K_TSET: u8 = 9;
const K_JMP: u8 = 10;
const K_CALL: u8 = 11;
const K_RET: u8 = 12;
const K_RETI: u8 = 13;
const K_WINC: u8 = 14;
const K_WDEC: u8 = 15;
const K_FORK: u8 = 16;
const K_SIGNAL: u8 = 17;
const K_CLRI: u8 = 18;
const K_STOP: u8 = 19;
const K_HALT: u8 = 20;
const K_BRK: u8 = 21;
/// Pseudo-kind of an undecodable program word; never enters the pipe
/// (fetching it raises [`SimError::Decode`] instead).
const K_FAULT: u8 = 22;
const KIND_COUNT: usize = 23;

/// Handler index of `instr` into [`HANDLERS`].
fn kind_of(instr: &Instruction) -> u8 {
    match instr {
        Instruction::Nop => K_NOP,
        Instruction::Alu { .. } => K_ALU,
        Instruction::AluImm { .. } => K_ALU_IMM,
        Instruction::Ldi { .. } => K_LDI,
        Instruction::Lui { .. } => K_LUI,
        Instruction::Ld { .. } => K_LD,
        Instruction::Lda { .. } => K_LDA,
        Instruction::St { .. } => K_ST,
        Instruction::Sta { .. } => K_STA,
        Instruction::Tset { .. } => K_TSET,
        Instruction::Jmp { .. } => K_JMP,
        Instruction::Call { .. } => K_CALL,
        Instruction::Ret { .. } => K_RET,
        Instruction::Reti => K_RETI,
        Instruction::Winc { .. } => K_WINC,
        Instruction::Wdec { .. } => K_WDEC,
        Instruction::Fork { .. } => K_FORK,
        Instruction::Signal { .. } => K_SIGNAL,
        Instruction::Clri { .. } => K_CLRI,
        Instruction::Stop => K_STOP,
        Instruction::Halt => K_HALT,
        Instruction::Brk => K_BRK,
    }
}

/// `true` when executing the instruction cannot disturb any state the
/// superblock entry conditions froze: it touches only registers, flags
/// and (for `jmp`) the stream PC — never `ir`/`mr`, the window position,
/// memory, the bus, other streams or machine control. `jmp` qualifies
/// because its taken-path PC update and flush are replayed exactly inside
/// a run; everything else ends the run at its fetch, before any of its
/// execute-stage effects.
fn burst_safe(instr: &Instruction) -> bool {
    match *instr {
        Instruction::Nop | Instruction::Jmp { .. } => true,
        Instruction::Alu { op, awp, rd, .. } => {
            awp == AwpMode::None && !(op.writes_rd() && matches!(rd, Reg::Ir | Reg::Mr))
        }
        Instruction::AluImm { op, awp, rd, .. } => {
            awp == AwpMode::None && !(op.writes_rd() && matches!(rd, Reg::Ir | Reg::Mr))
        }
        Instruction::Ldi { awp, rd, .. } => {
            awp == AwpMode::None && !matches!(rd, Reg::Ir | Reg::Mr)
        }
        Instruction::Lui { rd, .. } => !matches!(rd, Reg::Ir | Reg::Mr),
        _ => false,
    }
}

/// One predecoded program word: the instruction, its handler index and
/// every per-instruction property the fetch and execute paths need, so
/// the per-cycle hot path is pure table lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpEntry {
    instr: Instruction,
    /// Handler index into [`HANDLERS`]; [`K_FAULT`] for words that do not
    /// decode.
    kind: u8,
    /// Registers (and flags) read — the hazard probe mask.
    src_mask: u32,
    /// Registers (and flags) written — the scoreboard mask.
    dst_mask: u32,
    /// Moves the AWP while in flight.
    moves_window: bool,
    /// Reads/writes window registers or moves the window.
    touches_window: bool,
    /// Eligible for superblock runs (see [`burst_safe`]).
    simple: bool,
}

/// Predecoded entry for addresses past the program image: word 0 decodes
/// as `nop`, matching `Program::word`.
const NOP_ENTRY: OpEntry = OpEntry {
    instr: Instruction::Nop,
    kind: K_NOP,
    src_mask: 0,
    dst_mask: 0,
    moves_window: false,
    touches_window: false,
    simple: true,
};

impl OpEntry {
    fn from_instr(instr: Instruction) -> OpEntry {
        OpEntry {
            kind: kind_of(&instr),
            src_mask: source_mask(&instr),
            dst_mask: dest_mask(&instr),
            moves_window: moves_window(&instr),
            touches_window: touches_window(&instr),
            simple: burst_safe(&instr),
            instr,
        }
    }
}

/// Builds the predecoded entry for one program word. Undecodable words
/// get a [`K_FAULT`] entry so the fault can still be reported lazily at
/// the cycle a stream actually fetches the word.
fn predecode(word: u32) -> OpEntry {
    match disc_isa::encode::decode(word) {
        Ok(instr) => OpEntry::from_instr(instr),
        Err(_) => OpEntry {
            instr: Instruction::Nop,
            kind: K_FAULT,
            src_mask: 0,
            dst_mask: 0,
            moves_window: false,
            touches_window: false,
            simple: false,
        },
    }
}

/// An EX-stage handler in the threaded-code dispatch table.
type OpHandler = fn(&mut Machine, Slot, usize) -> Status;

/// Threaded-code dispatch table, indexed by the [`K_NOP`]..=[`K_FAULT`]
/// kind predecoded into each [`OpEntry`]/[`Slot`]. Order must match the
/// `K_*` constants.
static HANDLERS: [OpHandler; KIND_COUNT] = [
    Machine::op_nop,
    Machine::op_alu,
    Machine::op_alu_imm,
    Machine::op_ldi,
    Machine::op_lui,
    Machine::op_ld,
    Machine::op_lda,
    Machine::op_st,
    Machine::op_sta,
    Machine::op_tset,
    Machine::op_jmp,
    Machine::op_call,
    Machine::op_ret,
    Machine::op_reti,
    Machine::op_winc,
    Machine::op_wdec,
    Machine::op_fork,
    Machine::op_signal,
    Machine::op_clri,
    Machine::op_stop,
    Machine::op_halt,
    Machine::op_brk,
    Machine::op_fault,
];

/// The DISC1 machine.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Machine {
    config: MachineConfig,
    program: Program,
    /// Every program word predecoded once at construction: instruction,
    /// handler index, hazard masks and superblock eligibility. Code is
    /// immutable (Harvard organization), so the store never invalidates.
    ops: Vec<OpEntry>,
    streams: Vec<Stream>,
    globals: [u16; disc_isa::GLOBAL_REGS],
    /// Pipeline ring buffer: logical stage `i` lives at physical index
    /// `(pipe_head + i) % depth`, so advancing the pipe is a head rotation
    /// instead of a per-cycle shift of every slot.
    pipe: [Option<Slot>; MAX_PIPE],
    pipe_head: usize,
    /// Occupied pipeline slots, maintained incrementally so the idle check
    /// in `run` does not rescan the pipe every cycle.
    live_slots: usize,
    scheduler: Scheduler,
    intmem: InternalMemory,
    abi: Abi,
    bus: Box<dyn DataBus>,
    stats: MachineStats,
    /// Fast-forward accounting, nonzero only under
    /// [`StepMode::EventSkip`].
    skip_stats: SkipStats,
    /// Superblock fast-path accounting, nonzero only under
    /// [`DispatchMode::Superblock`].
    sb_stats: SuperblockStats,
    /// Slow steps left before the next superblock eligibility probe.
    /// Persistent machine state (not a `run`-local) so splitting a run
    /// across several `run` calls cannot change when probes happen.
    sb_backoff: u64,
    /// The last superblock burst was cut by the caller's cycle budget,
    /// not by the machine: the next probe continues the same burst (one
    /// burst in the accounting, no entry probe counted).
    sb_carry: bool,
    /// Cycles covered so far by the carried burst.
    sb_carry_len: u64,
    /// The last event skip was cut by the caller's cycle budget: the next
    /// skip extends it (one skip in the accounting).
    skip_carry: bool,
    cycle: u64,
    halted: bool,
    next_seq: u64,
    idle_exit: bool,
    trace: Option<Box<dyn TraceSink>>,
    irq_buf: Vec<IrqRequest>,
    events: Vec<TraceEvent>,
    /// The bus's latest [`DataBus::next_event`] answer: the first cycle
    /// whose tick may have an effect. `None` until the bus is asked again:
    /// after a real tick, after every bus read/write and at entry to every
    /// public [`step`](Self::step)/[`run`](Self::run), since any of these
    /// may have changed what the bus will do.
    bus_due: Option<u64>,
    /// Ticks the bus is behind the machine: quiet cycles before
    /// `bus_due` are not ticked but owed, and one [`DataBus::advance`]
    /// settles them before any other bus call. Zero between public calls.
    bus_owed: u64,
    /// Fatal error latched inside the execute path (where `step`'s
    /// `Result` is out of reach) and surfaced at the end of the cycle.
    pending_error: Option<SimError>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("halted", &self.halted)
            .field("streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine running `program` with flat external memory of
    /// latency [`MachineConfig::default_ext_latency`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig, program: &Program) -> Self {
        let latency = config.default_ext_latency;
        Self::with_bus(config, program, Box::new(FlatBus::new(latency)))
    }

    /// Creates a machine with an explicit external bus implementation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_bus(config: MachineConfig, program: &Program, bus: Box<dyn DataBus>) -> Self {
        config.validate();
        let mut streams = Vec::with_capacity(config.streams);
        for s in 0..config.streams {
            let mut st = Stream::new(config.window_depth, config.window_policy);
            for bit in 1..disc_isa::IRQ_LEVELS as u8 {
                st.vectors[bit as usize] = program.vector(s, bit);
            }
            if let Some(entry) = program.entry(s) {
                st.pc = entry;
                st.raise(0, 0);
            }
            streams.push(st);
        }
        let scheduler = Scheduler::new(config.schedule.clone(), config.streams);
        // Predecode the whole image up front so the per-cycle fetch path
        // is a table lookup. Addresses past the image read as word 0
        // (`nop`), matching `Program::word`.
        let ops = (0..program.len())
            .map(|addr| predecode(program.word(addr as u16)))
            .collect();
        Machine {
            streams,
            globals: [0; disc_isa::GLOBAL_REGS],
            pipe: [None; MAX_PIPE],
            pipe_head: 0,
            live_slots: 0,
            scheduler,
            intmem: InternalMemory::new(config.internal_words),
            abi: Abi::new(),
            bus,
            stats: MachineStats::new(config.streams),
            skip_stats: SkipStats::default(),
            sb_stats: SuperblockStats::default(),
            sb_backoff: 0,
            sb_carry: false,
            sb_carry_len: 0,
            skip_carry: false,
            cycle: 0,
            halted: false,
            next_seq: 0,
            idle_exit: true,
            trace: None,
            irq_buf: Vec::new(),
            events: Vec::new(),
            bus_due: None,
            bus_owed: 0,
            pending_error: None,
            ops,
            program: program.clone(),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `true` once a `halt` instruction has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Execution statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Fast-forward accounting of [`StepMode::EventSkip`]. All zero in
    /// the default cycle-by-cycle mode.
    pub fn skip_stats(&self) -> &SkipStats {
        &self.skip_stats
    }

    /// Superblock fast-path accounting of [`DispatchMode::Superblock`].
    /// All zero under [`DispatchMode::Legacy`].
    pub fn superblock_stats(&self) -> &SuperblockStats {
        &self.sb_stats
    }

    /// Slot-grant accounting of the hardware scheduler.
    pub fn scheduler_grants(&self) -> &[u64] {
        self.scheduler.granted()
    }

    /// Slots the hardware scheduler dynamically reallocated away from
    /// their owning stream — the paper's defining mechanism. Also folded
    /// into [`MachineStats::reallocations`] every cycle.
    pub fn scheduler_reallocations(&self) -> u64 {
        self.scheduler.reallocated()
    }

    /// The internal 2 KB memory.
    pub fn internal_memory(&self) -> &InternalMemory {
        &self.intmem
    }

    /// Mutable access to internal memory (test setup, I/O injection).
    pub fn internal_memory_mut(&mut self) -> &mut InternalMemory {
        &mut self.intmem
    }

    /// Mutable access to the external data bus (test setup and
    /// post-mortem inspection, e.g. the differential fuzz harness reading
    /// back external memory). Accesses through this handle bypass the
    /// asynchronous bus interface entirely: no latency, no transaction,
    /// no stats.
    pub fn bus_mut(&mut self) -> &mut dyn DataBus {
        self.settle_bus();
        &mut *self.bus
    }

    /// Immutable view of stream `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn stream(&self, s: usize) -> &Stream {
        &self.streams[s]
    }

    /// Number of configured streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Reads architectural register `r` of stream `s` (inspection path; no
    /// side effects).
    pub fn reg(&self, s: usize, r: Reg) -> u16 {
        let st = &self.streams[s];
        match r {
            r if r.is_window() => st
                .window
                .try_slot_of(r.index())
                .map(|slot| st.window.read_slot(slot))
                .unwrap_or(0),
            Reg::G0 | Reg::G1 | Reg::G2 | Reg::G3 => self.globals[(r.index() - 8) as usize],
            Reg::Sp => st.sp,
            Reg::Sr => st.flags.to_word(),
            Reg::Ir => st.ir as u16,
            Reg::Mr => st.mr as u16,
            _ => unreachable!(),
        }
    }

    /// Writes architectural register `r` of stream `s` (test setup path).
    pub fn set_reg(&mut self, s: usize, r: Reg, value: u16) {
        let cycle = self.cycle;
        let st = &mut self.streams[s];
        match r {
            r if r.is_window() => {
                if let Some(slot) = st.window.try_slot_of(r.index()) {
                    st.window.write_slot(slot, value);
                }
            }
            Reg::G0 | Reg::G1 | Reg::G2 | Reg::G3 => {
                self.globals[(r.index() - 8) as usize] = value;
            }
            Reg::Sp => st.sp = value,
            Reg::Sr => st.flags = Flags::from_word(value),
            Reg::Ir => {
                let new = value as u8;
                for bit in 0..8 {
                    if new & (1 << bit) != 0 && st.ir & (1 << bit) == 0 {
                        st.irq_raised_at[bit as usize] = Some(cycle);
                    }
                }
                st.ir = new;
            }
            Reg::Mr => st.mr = value as u8,
            _ => unreachable!(),
        }
    }

    /// Shared global register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn global(&self, i: usize) -> u16 {
        self.globals[i]
    }

    /// Sets shared global register `i`.
    pub fn set_global(&mut self, i: usize, value: u16) {
        self.globals[i] = value;
    }

    /// Raises IR bit `bit` of stream `s` (external interrupt line).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `bit` is out of range.
    pub fn raise_interrupt(&mut self, s: usize, bit: u8) {
        let cycle = self.cycle;
        self.streams[s].raise(bit, cycle);
    }

    /// Sets the interrupt vector of (`s`, `bit`) at run time.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is 0 (background never vectors) or out of range.
    pub fn set_vector(&mut self, s: usize, bit: u8, target: u16) {
        assert!((1..8).contains(&bit), "vector bit must be 1..=7");
        self.streams[s].vectors[bit as usize] = Some(target);
    }

    /// Controls whether [`Machine::run`] returns [`Exit::AllIdle`] when no
    /// stream is active and nothing is in flight. Disable when bus
    /// peripherals raise interrupts at future times.
    pub fn set_idle_exit(&mut self, enabled: bool) {
        self.idle_exit = enabled;
    }

    /// Starts collecting a cycle trace of at most `capacity` cycles into
    /// the built-in bounded ring buffer. Capacity 0 keeps nothing (the
    /// machine still runs, the buffer just stays empty).
    pub fn trace_start(&mut self, capacity: usize) {
        self.trace = Some(Box::new(Trace::new(capacity)));
    }

    /// Stops tracing and returns the collected trace.
    ///
    /// Returns `Some` only when the active sink is the bounded [`Trace`]
    /// installed by [`Machine::trace_start`]; any other sink is finished
    /// and dropped — recover custom sinks with
    /// [`Machine::take_trace_sink`] instead.
    pub fn trace_take(&mut self) -> Option<Trace> {
        self.take_trace_sink()
            .and_then(|sink| sink.into_any().downcast::<Trace>().ok())
            .map(|t| *t)
    }

    /// Installs an arbitrary [`TraceSink`] observing every subsequent
    /// cycle, replacing any previous sink without finishing it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes the active sink, calling [`TraceSink::finish`] on it so
    /// buffered output is flushed before the sink is handed back.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.trace.take()?;
        sink.finish();
        Some(sink)
    }

    /// Asks the active sink (if any) to push buffered output downstream
    /// ([`TraceSink::flush_out`]). Chunked drivers call this at chunk
    /// boundaries so batched wire output is on the wire before any
    /// control event that must not overtake it.
    pub fn flush_trace_sink(&mut self) {
        if let Some(sink) = self.trace.as_mut() {
            sink.flush_out();
        }
    }

    /// `true` when every stream is inactive and nothing is in flight.
    ///
    /// Checked after every cycle by [`Machine::run`], so the hot case (a
    /// busy machine) must be cheap: the pipe occupancy is an incrementally
    /// maintained counter, and the per-stream scan only runs on the rare
    /// cycles where the pipe is empty and the bus is quiet.
    pub fn all_idle(&self) -> bool {
        self.live_slots == 0 && !self.abi.busy() && self.streams.iter().all(|s| !s.active())
    }

    /// Runs until halt, breakpoint, idleness or the cycle budget expires.
    ///
    /// This is the one cycle loop. Every cycle is the scheduler's
    /// decision exactly as in [`step`](Self::step); two fast-forwards
    /// cover stretches whose outcome is known in advance, both bounded by
    /// the same wake horizon (ABI completion or timeout, the bus's next
    /// event, spill-stall expiry, the trace sink's next observation, the
    /// budget):
    ///
    /// * under [`StepMode::EventSkip`], a provably quiescent machine
    ///   jumps straight to the horizon with one bulk counter update;
    /// * otherwise, under [`DispatchMode::Superblock`] with no probe
    ///   backoff pending, a hazard-frozen machine bursts up to the horizon
    ///   through the superblock fast path.
    ///
    /// A burst the machine ends is always followed by one slow step,
    /// which owns the instruction or event that ended it. `Halted`,
    /// `Breakpoint` and the `AllIdle` exit arise only from slow steps.
    /// All pacing state (probe backoff, budget-truncated skips and
    /// bursts) lives on the machine, so chunking a run into several `run`
    /// calls reaches the same state — counters included — as one big
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] when a stream fetches an undecodable
    /// program word, or [`SimError::UnhandledBusFault`] when a bus fault
    /// under [`BusFaultPolicy::Fault`] cannot be delivered because the
    /// stream masks the bus-error interrupt.
    pub fn run(&mut self, max_cycles: u64) -> Result<Exit, SimError> {
        // The host may have reprogrammed a peripheral through a shared
        // handle since the last call: ask the bus for its next event anew.
        self.bus_due = None;
        let exit = self.run_cycles(max_cycles);
        self.settle_bus();
        exit
    }

    /// The body of [`run`](Self::run), which settles the bus after it.
    fn run_cycles(&mut self, max_cycles: u64) -> Result<Exit, SimError> {
        // A finished machine must make `run` a strict no-op: a halted or
        // idle machine stays that way until an external input arrives, so
        // report it without burning a cycle — and without letting the
        // superblock/event-skip paths touch their pacing state. Otherwise
        // an extra `run` call after the machine finished (which is exactly
        // what resuming from a snapshot does) would leave different
        // diagnostic counters than the run that never made the call.
        if self.halted {
            return Ok(Exit::Halted);
        }
        if self.idle_exit && self.all_idle() {
            return Ok(Exit::AllIdle);
        }
        let skip = self.config.step_mode == StepMode::EventSkip;
        let superblock = self.config.dispatch_mode == DispatchMode::Superblock;
        let mut remaining = max_cycles;
        let exit = loop {
            if remaining == 0 {
                break Exit::CycleLimit;
            }
            if skip {
                // Checked before bursts, so skips are never split into
                // bursts.
                if self.quiescent() {
                    let n = self.horizon(remaining) - self.cycle;
                    if n > 0 {
                        self.apply_skip(n, n == remaining);
                        remaining -= n;
                        continue;
                    }
                }
                self.skip_carry = false;
            }
            if superblock {
                if self.sb_backoff == 0 {
                    remaining -= self.burst(remaining)?;
                    if remaining == 0 {
                        break Exit::CycleLimit;
                    }
                } else {
                    self.sb_backoff -= 1;
                }
            }
            match self.slow_step()? {
                Status::Running => {}
                Status::Halted => break Exit::Halted,
                Status::Breakpoint { stream, pc } => break Exit::Breakpoint { stream, pc },
            }
            remaining -= 1;
            if self.idle_exit && self.all_idle() {
                break Exit::AllIdle;
            }
        };
        if matches!(exit, Exit::Halted | Exit::AllIdle) {
            // The run ended for good (not a budget/breakpoint boundary):
            // let a windowed sink flush its partial tail window. The
            // halted/all-idle early returns above keep this a one-shot
            // even when a finished machine is `run` again.
            if let Some(mut sink) = self.trace.take() {
                sink.observe_run_end(self.cycle, &self.stats);
                self.trace = Some(sink);
            }
        }
        Ok(exit)
    }

    /// One bounded scheduling quantum of a hosted session: runs at most
    /// `budget` cycles and reports how many actually elapsed alongside
    /// the exit reason.
    ///
    /// This is the chunk API `disc-serve` drives sessions with: all
    /// pacing state (superblock carry/backoff, truncated skips) lives on
    /// the machine, so splitting a long run into chunks reaches a state —
    /// counters, stats and diagnostics included — byte-identical to one
    /// uninterrupted [`run`](Self::run) of the same total budget, and a
    /// chunk boundary is therefore always a safe point to pause,
    /// snapshot or evict the session.
    ///
    /// # Errors
    ///
    /// Exactly the [`run`](Self::run) errors.
    pub fn run_chunk(&mut self, budget: u64) -> Result<ChunkRun, SimError> {
        let before = self.cycle;
        let exit = self.run(budget)?;
        Ok(ChunkRun {
            exit,
            cycles: self.cycle - before,
        })
    }

    /// Probes and runs one superblock burst of at most `budget` cycles,
    /// carrying budget-truncated bursts across `run` calls: a burst cut
    /// by the cycle budget is resumed by the next probe (no entry-reject
    /// counted, no second burst counted), and the retry backoff is
    /// decided on the *total* burst length once the machine — not the
    /// budget — ends it.
    fn burst(&mut self, budget: u64) -> Result<u64, SimError> {
        let resuming = self.sb_carry;
        self.sb_carry = false;
        // A fault ends the burst for good, so no carried length survives
        // it (a one-shot run faulting in the same burst carried none).
        let n = self
            .superblock_burst(budget, resuming)
            .inspect_err(|_| self.sb_carry_len = 0)?;
        if n == budget {
            // Cut by the caller's budget, not by the machine.
            self.sb_carry = true;
            self.sb_carry_len += n;
        } else {
            let total = self.sb_carry_len + n;
            self.sb_carry_len = 0;
            if total < BURST_RETRY_FLOOR {
                // The machine is near a hazard (bus op, window motion,
                // interrupt …): stop paying the eligibility probe every
                // cycle until the slow path has moved past it.
                self.sb_backoff = BURST_BACKOFF;
            }
        }
        Ok(n)
    }

    /// `true` when the next step provably changes no architectural state
    /// beyond counter ticks: the pipeline is empty, no stream can issue
    /// (inactive, bus-waiting or spill-stalled), and no stream would take
    /// a vectored interrupt. Peripheral/ABI/sink activity is bounded
    /// separately by [`horizon`](Self::horizon).
    fn quiescent(&self) -> bool {
        if self.live_slots != 0 {
            return false;
        }
        self.streams.iter().all(|st| {
            if st.wait != WaitState::None {
                return true;
            }
            // A deliverable vector preempts even a spill-stalled stream
            // (vector delivery does not check `spill_stall`).
            if st
                .pending_interrupt()
                .is_some_and(|bit| st.vectors[bit as usize].is_some())
            {
                return false;
            }
            !st.active() || st.spill_stall > 0
        })
    }

    /// First absolute cycle whose step must run normally, bounded by the
    /// remaining cycle `budget`: the minimum over the outstanding ABI
    /// transaction's completion (or fault-policy timeout), the bus's next
    /// peripheral event, the spill-stall expiry of any stream that would
    /// become issuable, and the attached sink's next observation.
    ///
    /// Both fast-forwards of [`run`](Self::run) stop here. Superblock
    /// entry rules out an ABI transaction and spill stalls, so for a burst
    /// the bound reduces to the budget, the bus and the sink — exact all
    /// the same.
    ///
    /// Settles the bus first, so its next event is asked at the bus's own
    /// current cycle, and caches the answer for the steps that follow.
    fn horizon(&mut self, budget: u64) -> u64 {
        let now = self.cycle;
        let mut wake = now.saturating_add(budget);
        if let Some(txn) = self.abi.current() {
            // `tick` completes the transaction when `remaining` reaches 1,
            // i.e. during the step starting `remaining - 1` cycles from
            // now; the timeout abort fires on the step that pushes
            // `elapsed` past the configured limit.
            wake = wake.min(now + u64::from(txn.remaining) - 1);
            if self.config.bus_fault == BusFaultPolicy::Fault && self.config.abi_timeout > 0 {
                wake = wake.min(
                    now + self
                        .config
                        .abi_timeout
                        .saturating_sub(self.abi.elapsed() + 1),
                );
            }
        }
        wake = wake.min(self.query_bus_due());
        for st in &self.streams {
            // The spill countdown and the fetch happen in the same step,
            // so a stream with `spill_stall == k` can issue during the
            // step starting `k - 1` cycles from now.
            if st.active() && st.wait == WaitState::None && st.spill_stall > 0 {
                wake = wake.min(now + u64::from(st.spill_stall) - 1);
            }
        }
        if let Some(sink) = &self.trace {
            if let Some(t) = sink.next_observe(now) {
                wake = wake.min(t.max(now));
            }
        }
        wake
    }

    /// One quiescence skip of `n` cycles. `truncated` marks a skip cut
    /// short by the caller's cycle budget rather than by a wake event; the
    /// continuation applied by the next `run` call then extends this skip
    /// instead of counting a new one.
    fn apply_skip(&mut self, n: u64, truncated: bool) {
        self.advance_quiescent(n);
        if !self.skip_carry {
            self.skip_stats.skips += 1;
        }
        self.skip_carry = truncated;
        self.skip_stats.cycles_skipped += n;
    }

    /// Bulk-applies `n` quiescent cycles: exactly the counter updates `n`
    /// individual steps would have made, without touching architectural
    /// state (which the caller proved frozen).
    fn advance_quiescent(&mut self, n: u64) {
        debug_assert!(n > 0);
        for (s, st) in self.streams.iter_mut().enumerate() {
            let dec = n.min(u64::from(st.spill_stall));
            let attr = &mut self.stats.attribution;
            match st.wait {
                WaitState::BusTransaction => {
                    self.stats.wait_txn_cycles[s] += n;
                    attr.bus_txn_wait[s] += n;
                }
                WaitState::BusFree => {
                    self.stats.wait_bus_free_cycles[s] += n;
                    attr.bus_free_wait[s] += n;
                }
                WaitState::None => {
                    // Active spill-stalled streams bound the wake cycle,
                    // so here `n - dec > 0` only for inactive streams,
                    // which fall to idle once their spill expires.
                    attr.spill_stall[s] += dec;
                    attr.idle[s] += n - dec;
                }
            }
            // The flat spill counter ticks for every stream regardless of
            // wait state, exactly as the per-step countdown does.
            st.spill_stall -= dec as u32;
            self.stats.spill_stall_cycles[s] += dec;
        }
        self.stats.bubbles += n;
        self.stats.cycles += n;
        self.cycle += n;
        self.scheduler.advance_idle(n);
        self.abi.advance(n);
        self.bus_owed += n;
        debug_assert!(
            (0..self.streams.len()).all(|s| self.stats.attribution.total(s) == self.stats.cycles),
            "cycle attribution diverged from elapsed cycles during a quiescent stretch"
        );
    }

    /// Physical index of logical pipeline stage `stage` in the ring.
    /// Only the first `pipeline_depth` cells of the fixed backing array
    /// are ever used; the head wraps within them.
    #[inline]
    fn stage_idx(&self, stage: usize) -> usize {
        let i = self.pipe_head + stage;
        let len = self.config.pipeline_depth;
        if i >= len {
            i - len
        } else {
            i
        }
    }

    /// Superblock entry check: the active-stream mask and the cycle limit
    /// of a burst starting now, or `None` when the machine is not
    /// hazard-frozen or the horizon is this very cycle.
    fn burst_entry(&mut self, budget: u64) -> Option<(u32, u64)> {
        // A sink that frames every cycle pins bursts off entirely; a
        // boundary-sampling sink merely bounds the run via the horizon.
        if self.halted
            || self.trace.as_ref().is_some_and(|sink| sink.wants_records())
            || self.abi.busy()
            || self.scheduler.sequence().is_none()
        {
            return None;
        }
        let mut active_mask: u32 = 0;
        for (s, st) in self.streams.iter().enumerate() {
            if st.wait != WaitState::None
                || st.spill_stall > 0
                || st.window_moves > 0
                || st
                    .pending_interrupt()
                    .is_some_and(|bit| st.vectors[bit as usize].is_some())
            {
                return None;
            }
            if st.active() {
                active_mask |= 1 << s;
            }
        }
        // The slow loop owns the AllIdle exit: a run entered here would
        // cover cycles `run` must never execute.
        if active_mask == 0 && self.idle_exit {
            return None;
        }
        if self
            .pipe
            .iter()
            .flatten()
            .any(|slot| !burst_safe(&slot.instr))
        {
            return None;
        }
        let limit = self.horizon(budget) - self.cycle;
        (limit > 0).then_some((active_mask, limit))
    }

    /// Attempts a superblock run of at most `budget` cycles; returns the
    /// cycles covered (0 when the machine is not in a burst-eligible
    /// state).
    ///
    /// A run replays the per-cycle [`step`](Self::step) semantics with
    /// every provably frozen term stripped out. Entry requires the machine
    /// to be *hazard-frozen*: no trace sink that frames every cycle, no
    /// outstanding bus transaction, no wait state, no spill stall, no
    /// in-flight window motion, no deliverable vectored interrupt, and
    /// only burst-safe instructions in the pipe. Under those conditions a
    /// cycle can only change stream registers/flags/PCs, the pipe, the
    /// scoreboard and counters. Each cycle retires, executes and then
    /// replays the scheduler's pick; an instruction that could melt the
    /// freeze (memory, window motion, stream control, `ir`/`mr` writes) is
    /// still *fetched* exactly as `step` would — fetching is pure
    /// bookkeeping — and ends the run before its execute stage can run, so
    /// the slow path owns all its effects. The run stops at the
    /// [`horizon`](Self::horizon) that also bounds quiescence skips, so no
    /// peripheral tick, fault-plan window edge, interrupt or sink
    /// observation (a counters-only sink does not pin bursts off) lands
    /// inside a run: the horizon cycle itself is stepped by the slow loop.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] when the scheduler grants a stream
    /// whose next word does not decode — mutating exactly the state the
    /// equivalent failing `step` would have (retire/execute happened, the
    /// cycle counter did not advance).
    fn superblock_burst(&mut self, budget: u64, resuming: bool) -> Result<u64, SimError> {
        let Some((active_mask, limit)) = self.burst_entry(budget) else {
            if !resuming {
                self.sb_stats.entry_rejects += 1;
            }
            return Ok(0);
        };

        let nstreams = self.streams.len();
        // All streams parked awaiting a future bus event with nothing in
        // flight: the whole bounded stretch is bubbles, accounted in bulk.
        // (Reachable only with idle-exit disabled.)
        if active_mask == 0 && self.live_slots == 0 {
            self.advance_quiescent(limit);
            if !resuming {
                self.sb_stats.bursts += 1;
            }
            self.sb_stats.burst_cycles += limit;
            return Ok(limit);
        }

        // -- per-cycle fast loop ------------------------------------------
        let depth = self.config.pipeline_depth;
        let ex = depth - 2;
        // Snapshot the sequence table into a fixed-size local: the table
        // never exceeds `SEQUENCE_SLOTS` entries, and the `& 15` on every
        // access (a no-op, since the scan keeps its index below `seq_len`)
        // lets the probe loop index without a bounds check.
        let mut seq_buf = [0u8; crate::scheduler::SEQUENCE_SLOTS];
        let seq_src = self.scheduler.sequence().expect("checked at entry");
        let seq_len = seq_src.len();
        debug_assert!(seq_len <= seq_buf.len());
        seq_buf[..seq_len].copy_from_slice(seq_src);
        let mut slot_idx = self.scheduler.slot_index();

        let mut issued = [0u64; disc_isa::MAX_STREAMS];
        let mut hazard = [0u64; disc_isa::MAX_STREAMS];
        let mut granted = [0u64; disc_isa::MAX_STREAMS];
        let mut retired = [0u64; disc_isa::MAX_STREAMS];
        let mut realloc: u64 = 0;
        let mut bubbles: u64 = 0;
        let mut executed: u64 = 0;
        let mut decode_fault = false;
        let mut fault_stream = 0usize;
        let mut fault_pc = 0u16;

        while executed < limit {
            // Pipeline advance: retire the write stage, rotate the ring.
            // Open-coded [`retire`](Self::retire): no sink is attached in
            // a burst, and the retired counters accumulate locally.
            let widx = self.stage_idx(depth - 1);
            if let Some(slot) = self.pipe[widx].take() {
                self.live_slots -= 1;
                retired[slot.stream] += 1;
                let st = &mut self.streams[slot.stream];
                st.drop_pending(slot.seq);
                if slot.moves_window {
                    st.window_moves = st.window_moves.saturating_sub(1);
                }
            }
            self.pipe_head = widx;

            // Execute the slot that just reached EX (burst-safe by
            // construction, so the status is always `Running`). Hot kinds
            // dispatch directly so the calls inline; the table handles the
            // rest. After the rotate `widx` is stage 0, so stage `ex` sits
            // `ex` cells beyond it.
            let eidx = {
                let i = widx + ex;
                if i >= depth {
                    i - depth
                } else {
                    i
                }
            };
            if let Some(slot) = self.pipe[eidx] {
                let status = match slot.kind {
                    K_NOP => Status::Running,
                    K_ALU => self.op_alu(slot, ex),
                    K_ALU_IMM => self.op_alu_imm(slot, ex),
                    K_LDI => self.op_ldi(slot, ex),
                    K_JMP => self.op_jmp(slot, ex),
                    _ => self.execute(slot, ex),
                };
                debug_assert!(matches!(status, Status::Running));
            }

            // Replay the scheduler pick. Probing commits nothing; hazard
            // counts apply only once the cycle's outcome is known. A
            // stream revisited by the scan (duplicate sequence slots) was
            // already probed not-ready this cycle — a ready stream is
            // picked immediately — so only a not-ready memo is needed.
            let mut notready_memo: u32 = 0;
            let mut hazard_memo: u32 = 0;
            let mut pick: Option<(usize, bool)> = None;
            let mut pick_entry = NOP_ENTRY;
            let mut pick_pc: u16 = 0;
            let mut idx = slot_idx;
            for scan in 0..=seq_len {
                let is_realloc = scan != 0;
                if is_realloc {
                    idx += 1;
                    if idx == seq_len {
                        idx = 0;
                    }
                }
                let cand = seq_buf[idx & (crate::scheduler::SEQUENCE_SLOTS - 1)] as usize;
                let bit = 1u32 << cand;
                if notready_memo & bit != 0 {
                    continue;
                }
                if active_mask & bit == 0 {
                    notready_memo |= bit;
                    continue;
                }
                let st = &self.streams[cand];
                let e = *self.ops.get(st.pc as usize).unwrap_or(&NOP_ENTRY);
                // Fault entries probe ready without a hazard check,
                // exactly like the slow path; the fault surfaces when the
                // stream is actually picked.
                if e.kind != K_FAULT && st.pending_conflict(e.src_mask) {
                    hazard_memo |= bit;
                    notready_memo |= bit;
                    continue;
                }
                pick = Some((cand, is_realloc));
                pick_pc = st.pc;
                pick_entry = e;
                break;
            }

            // Commit the cycle.
            slot_idx += 1;
            if slot_idx == seq_len {
                slot_idx = 0;
            }
            let mut end_burst = false;
            match pick {
                None => bubbles += 1,
                Some((g, is_realloc)) => {
                    granted[g] += 1;
                    if is_realloc {
                        realloc += 1;
                    }
                    if pick_entry.kind == K_FAULT {
                        // The equivalent slow step errors out of `fetch`
                        // before attribution and the cycle increment; the
                        // probe's hazard counts and the scheduler grant
                        // stand. Finalize the complete cycles below, then
                        // surface the fault.
                        decode_fault = true;
                        fault_stream = g;
                        fault_pc = pick_pc;
                    } else {
                        issued[g] += 1;
                        let e = pick_entry;
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        let st = &mut self.streams[g];
                        st.pc = pick_pc.wrapping_add(1);
                        if e.dst_mask != 0 {
                            st.pending.push(PendingWrite {
                                seq,
                                mask: e.dst_mask,
                            });
                            st.pending_mask |= e.dst_mask;
                        }
                        if e.moves_window {
                            st.window_moves += 1;
                        }
                        // Stage 0 is the ring head, which the rotate above
                        // left at `widx`.
                        debug_assert!(self.pipe[widx].is_none(), "fetch into occupied pipe slot");
                        self.pipe[widx] = Some(Slot {
                            stream: g,
                            pc: pick_pc,
                            instr: e.instr,
                            seq,
                            moves_window: e.moves_window,
                            kind: e.kind,
                        });
                        self.live_slots += 1;
                        // A non-burst-safe grant (memory, window motion,
                        // stream control …) was fetched exactly as `step`
                        // would — pure bookkeeping — but must execute on
                        // the slow path: end the run after this cycle.
                        end_burst = !e.simple;
                    }
                }
            }
            // Probe-time hazard bookkeeping. The slow path bumps the flat
            // counter even on the cycle that errors out of fetch, but
            // attribution never sees an errored cycle.
            let mut hz = hazard_memo;
            while hz != 0 {
                let s = hz.trailing_zeros() as usize;
                hz &= hz - 1;
                self.stats.hazard_stalls[s] += 1;
                if !decode_fault {
                    hazard[s] += 1;
                }
            }
            if decode_fault {
                break;
            }
            executed += 1;
            if end_burst {
                break;
            }
        }

        // -- bulk finalize -------------------------------------------------
        for s in 0..nstreams {
            self.stats.retired[s] += retired[s];
            let a = &mut self.stats.attribution;
            if active_mask & (1 << s) == 0 {
                a.idle[s] += executed;
            } else {
                a.issue[s] += issued[s];
                a.hazard_stall[s] += hazard[s];
                a.not_scheduled[s] += executed - issued[s] - hazard[s];
            }
        }
        self.stats.bubbles += bubbles;
        self.stats.cycles += executed;
        self.cycle += executed;
        self.scheduler
            .apply_burst(slot_idx, &granted[..nstreams], realloc);
        self.stats.reallocations = self.scheduler.reallocated();
        self.abi.advance(executed);
        if executed > 0 {
            if !resuming {
                self.sb_stats.bursts += 1;
            }
            self.sb_stats.burst_cycles += executed;
            self.sb_stats.burst_issues += issued[..nstreams].iter().sum::<u64>();
        }
        debug_assert_eq!(
            self.live_slots,
            self.pipe.iter().filter(|s| s.is_some()).count(),
            "live slot counter diverged from pipe occupancy in a superblock run"
        );
        debug_assert!(
            decode_fault
                || (0..nstreams).all(|s| self.stats.attribution.total(s) == self.stats.cycles),
            "cycle attribution diverged from elapsed cycles in a superblock run"
        );
        if decode_fault {
            // The errored cycle's bus tick is owed too, as in the slow
            // path (still strictly inside the event-free stretch). The
            // grant and slot advance of the partial cycle happened in
            // `apply_burst`; like the slow path, the `reallocations`
            // snapshot and attribution are not updated for it.
            self.bus_owed += executed + 1;
            return Err(SimError::Decode {
                stream: fault_stream,
                pc: fault_pc,
                word: self.program.word(fault_pc),
            });
        }
        self.bus_owed += executed;
        Ok(executed)
    }

    /// Advances the machine by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] when a stream fetches an undecodable
    /// program word, or [`SimError::UnhandledBusFault`] when a bus fault
    /// cannot be delivered (see [`Machine::run`]).
    pub fn step(&mut self) -> Result<Status, SimError> {
        // As in `run`: a host edit since the last call may move the bus's
        // next event.
        self.bus_due = None;
        let status = self.slow_step();
        self.settle_bus();
        status
    }

    /// One full cycle of the machine, the body of [`step`](Self::step)
    /// and the slow path of [`run`](Self::run).
    fn slow_step(&mut self) -> Result<Status, SimError> {
        if self.halted {
            return Ok(Status::Halted);
        }
        self.events.clear();
        let ex = self.config.pipeline_depth - 2;

        // 1. Peripheral time and interrupt lines.
        self.tick_bus();

        // 2. Asynchronous bus interface. Under the fault policy a
        // transaction outstanding longer than `abi_timeout` is aborted —
        // the bus frees, every waiter wakes and the issuing stream takes a
        // bus-error interrupt — so a peripheral that never completes can
        // stall at most its own stream for at most `abi_timeout` cycles.
        if let Some(txn) = self.abi.tick() {
            self.complete_transaction(txn);
        } else if self.config.bus_fault == BusFaultPolicy::Fault
            && self.config.abi_timeout > 0
            && self.abi.elapsed() >= self.config.abi_timeout
        {
            if let Some(txn) = self.abi.abort() {
                self.abort_transaction(txn);
            }
        }

        // 3. Pipeline advance: retire the write stage, rotate the ring
        // head (stage `i` lives at physical `(head + i) % depth`, so a
        // single head move replaces the per-stage shift).
        let depth = self.config.pipeline_depth;
        let widx = self.stage_idx(depth - 1);
        if let Some(slot) = self.pipe[widx].take() {
            self.retire(slot);
        }
        self.pipe_head = widx;

        // 4. Execute the slot that just reached EX.
        let mut status = Status::Running;
        if let Some(slot) = self.pipe[self.stage_idx(ex)] {
            status = self.execute(slot, ex);
        }

        // 5. Spill stall countdown. The same pass notes whether any
        // stream has an IR bit above background armed, the precondition
        // of every vectored interrupt.
        let mut spilled: u32 = 0;
        let mut armed = false;
        for (s, st) in self.streams.iter_mut().enumerate() {
            if st.spill_stall > 0 {
                st.spill_stall -= 1;
                self.stats.spill_stall_cycles[s] += 1;
                spilled |= 1 << s;
            }
            armed |= (st.ir & st.mr) > 1;
        }

        // 6. Vector delivery and fetch.
        let mut hazard: u32 = 0;
        if !self.halted {
            if armed {
                self.deliver_vectors(ex);
            }
            hazard = self.fetch()?;
        }

        // 7. Per-stream wait accounting and cycle attribution. Every
        // stream lands in exactly one attribution bucket per cycle;
        // issue takes priority, so a stream whose stall expired and then
        // issued the same cycle counts as issue here even though the
        // flat stall counter above still ticked.
        let issued = self.pipe[self.stage_idx(0)]
            .as_ref()
            .map(|slot| slot.stream);
        for (s, st) in self.streams.iter().enumerate() {
            match st.wait {
                WaitState::BusTransaction => self.stats.wait_txn_cycles[s] += 1,
                WaitState::BusFree => self.stats.wait_bus_free_cycles[s] += 1,
                WaitState::None => {}
            }
            let attr = &mut self.stats.attribution;
            if issued == Some(s) {
                attr.issue[s] += 1;
            } else if st.wait == WaitState::BusTransaction {
                attr.bus_txn_wait[s] += 1;
            } else if st.wait == WaitState::BusFree {
                attr.bus_free_wait[s] += 1;
            } else if spilled & (1 << s) != 0 {
                attr.spill_stall[s] += 1;
            } else if hazard & (1 << s) != 0 {
                attr.hazard_stall[s] += 1;
            } else if !st.active() {
                attr.idle[s] += 1;
            } else {
                attr.not_scheduled[s] += 1;
            }
        }

        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.reallocations = self.scheduler.reallocated();
        debug_assert_eq!(
            self.live_slots,
            self.pipe.iter().filter(|s| s.is_some()).count(),
            "live slot counter diverged from pipe occupancy"
        );
        debug_assert!(
            (0..self.streams.len()).all(|s| self.stats.attribution.total(s) == self.stats.cycles),
            "cycle attribution diverged from elapsed cycles"
        );

        // 8. Trace sink. Counters-only sinks skip the record assembly
        // entirely via `wants_records`.
        if let Some(mut sink) = self.trace.take() {
            if sink.wants_records() {
                let record = CycleRecord {
                    cycle: self.cycle - 1,
                    stages: (0..self.config.pipeline_depth)
                        .map(|i| {
                            self.pipe[self.stage_idx(i)]
                                .as_ref()
                                .map(|s| StageSnapshot {
                                    stream: s.stream,
                                    pc: s.pc,
                                    instr: s.instr,
                                })
                        })
                        .collect(),
                    fetched: self.pipe[self.stage_idx(0)].as_ref().map(|s| s.stream),
                    events: std::mem::take(&mut self.events),
                };
                sink.record_cycle(record);
            }
            sink.observe_stats(self.cycle - 1, &self.stats);
            self.trace = Some(sink);
        }
        if let Some(err) = self.pending_error.take() {
            return Err(err);
        }
        Ok(status)
    }

    // ---- internals ------------------------------------------------------

    /// Peripheral time and interrupt lines for the current cycle. The bus
    /// is ticked only once its next event falls due; before that, by the
    /// [`DataBus::next_event`] contract, a tick has no effect, so it is
    /// owed instead and settled in bulk before the next bus call.
    fn tick_bus(&mut self) {
        let cycle = self.cycle;
        let due = match self.bus_due {
            Some(due) => due,
            None => self.query_bus_due(),
        };
        if cycle < due {
            self.bus_owed += 1;
            return;
        }
        self.settle_bus();
        self.bus_due = None;
        self.irq_buf.clear();
        self.bus.tick(&mut self.irq_buf);
        for i in 0..self.irq_buf.len() {
            let irq = self.irq_buf[i];
            if irq.stream < self.streams.len() && irq.bit < 8 {
                self.streams[irq.stream].raise(irq.bit, cycle);
            }
        }
    }

    /// Asks the bus, once it has caught up with the machine, for its next
    /// event (`u64::MAX` for none) and caches the answer as `bus_due`.
    fn query_bus_due(&mut self) -> u64 {
        self.settle_bus();
        let now = self.cycle;
        let due = self.bus.next_event(now).map_or(u64::MAX, |t| t.max(now));
        self.bus_due = Some(due);
        due
    }

    /// Pays the owed bus ticks with one [`DataBus::advance`], bringing the
    /// bus level with the machine.
    fn settle_bus(&mut self) {
        if self.bus_owed > 0 {
            self.bus.advance(self.bus_owed);
            self.bus_owed = 0;
        }
    }

    /// A bus read; it may change what the bus does next, so the cached
    /// due cycle is dropped.
    fn bus_read(&mut self, addr: u16) -> u16 {
        self.settle_bus();
        self.bus_due = None;
        self.bus.read(addr)
    }

    /// A bus write; drops the cached due cycle like [`bus_read`]
    /// (Self::bus_read).
    fn bus_write(&mut self, addr: u16, value: u16) {
        self.settle_bus();
        self.bus_due = None;
        self.bus.write(addr, value);
    }

    /// Stages a trace event for this cycle's record. Only a sink reads
    /// the buffer, and no step clears it inside a superblock burst, so
    /// without a sink nothing is pushed.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if self.trace.is_some() {
            self.events.push(event);
        }
    }

    /// Retires a slot just taken out of the pipe.
    fn retire(&mut self, slot: Slot) {
        self.live_slots -= 1;
        self.stats.retired[slot.stream] += 1;
        self.emit(TraceEvent::Retire {
            stream: slot.stream,
            pc: slot.pc,
        });
        let st = &mut self.streams[slot.stream];
        st.drop_pending(slot.seq);
        if slot.moves_window {
            st.window_moves = st.window_moves.saturating_sub(1);
        }
    }

    /// Removes `slot` from the scoreboard without retiring it.
    fn unwind_slot(&mut self, slot: &Slot) {
        let st = &mut self.streams[slot.stream];
        st.drop_pending(slot.seq);
        if slot.moves_window {
            st.window_moves = st.window_moves.saturating_sub(1);
        }
    }

    /// Flushes unexecuted (younger) slots of `stream` in stages `0..ex`,
    /// plus the EX slot itself when `include_self`.
    #[inline]
    fn flush(&mut self, ex: usize, stream: usize, include_self: bool, cause: FlushCause) {
        let mut count = 0;
        let top = if include_self { ex + 1 } else { ex };
        for i in 0..top {
            let idx = self.stage_idx(i);
            if self.pipe[idx].as_ref().is_some_and(|s| s.stream == stream) {
                let slot = self.pipe[idx].take().expect("checked above");
                self.live_slots -= 1;
                self.unwind_slot(&slot);
                count += 1;
            }
        }
        if count > 0 {
            match cause {
                FlushCause::Jump => self.stats.flushed_jump += count as u64,
                FlushCause::Io => self.stats.flushed_io += count as u64,
                FlushCause::Irq => self.stats.flushed_irq += count as u64,
                FlushCause::BusBusy => self.stats.flushed_bus_busy += count as u64,
            }
            self.emit(TraceEvent::Flush {
                stream,
                count,
                cause: cause.as_str(),
            });
        }
    }

    fn complete_transaction(&mut self, txn: Transaction) {
        match txn.op {
            BusOp::Read { dest } => {
                let value = self.bus_read(txn.addr);
                self.write_target(txn.stream, dest, value);
            }
            BusOp::Write { value } => self.bus_write(txn.addr, value),
            BusOp::TestAndSet { dest } => {
                let old = self.bus_read(txn.addr);
                self.bus_write(txn.addr, 0xffff);
                self.write_target(txn.stream, dest, old);
            }
        }
        // Release the issuing stream's bus-tagged scoreboard entries and
        // wake everyone waiting on the bus.
        self.streams[txn.stream]
            .pending
            .retain(|p| p.seq != BUS_SEQ);
        self.streams[txn.stream].resync_pending_mask();
        for st in &mut self.streams {
            if matches!(st.wait, WaitState::BusTransaction | WaitState::BusFree) {
                // Only the owner was in BusTransaction; BusFree waiters
                // retry their cancelled access now that the bus is free.
                st.wait = WaitState::None;
            }
        }
        self.emit(TraceEvent::BusComplete { stream: txn.stream });
    }

    /// Aborts a timed-out transaction: the transfer never happens, the
    /// issuing stream's bus-tagged scoreboard entries are released (a
    /// faulted load leaves its destination unchanged), every stream
    /// waiting on the bus wakes, and the issuer takes a bus-error
    /// interrupt.
    fn abort_transaction(&mut self, txn: Transaction) {
        self.stats.abi_timeouts += 1;
        self.streams[txn.stream]
            .pending
            .retain(|p| p.seq != BUS_SEQ);
        self.streams[txn.stream].resync_pending_mask();
        for st in &mut self.streams {
            if matches!(st.wait, WaitState::BusTransaction | WaitState::BusFree) {
                st.wait = WaitState::None;
            }
        }
        self.raise_bus_fault(txn.stream, txn.addr, BusFaultKind::Timeout);
    }

    /// Delivers a bus-error interrupt to stream `s` on the configured IR
    /// bit, recording the event in the stats and the trace. A stream that
    /// masks the bit cannot be told its access failed; that latches
    /// [`SimError::UnhandledBusFault`], surfaced at the end of the cycle.
    fn raise_bus_fault(&mut self, s: usize, addr: u16, kind: BusFaultKind) {
        let bit = self.config.bus_error_bit;
        let cycle = self.cycle;
        self.stats.bus_faults[s] += 1;
        if self.streams[s].mr() & (1 << bit) == 0 && self.pending_error.is_none() {
            self.pending_error = Some(SimError::UnhandledBusFault { stream: s, addr });
        }
        self.streams[s].raise(bit, cycle);
        self.emit(TraceEvent::BusFault {
            stream: s,
            addr,
            kind,
        });
    }

    /// Resolves the latency of an external access under the configured
    /// fault policy. `None` means the access was aborted (fault delivered)
    /// and must not touch the bus.
    fn fault_checked_latency(&mut self, s: usize, addr: u16, write: bool) -> Option<u32> {
        self.settle_bus();
        match self.bus.latency(addr, write) {
            Some(latency) => Some(latency),
            None => {
                self.stats.unmapped_accesses += 1;
                match self.config.bus_fault {
                    // Historical behavior: treat the unmapped access as
                    // zero-latency and hand it to the bus anyway (an
                    // address-decoded bus reads open-bus 0xffff and drops
                    // the write).
                    BusFaultPolicy::Legacy => Some(0),
                    BusFaultPolicy::Fault => {
                        self.raise_bus_fault(s, addr, BusFaultKind::Unmapped);
                        None
                    }
                }
            }
        }
    }

    fn write_target(&mut self, s: usize, target: RegTarget, value: u16) {
        match target {
            RegTarget::Window(slot) => self.streams[s].window.write_slot(slot, value),
            RegTarget::Global(i) => self.globals[i as usize] = value,
            RegTarget::Sp => self.streams[s].sp = value,
            RegTarget::Sr => self.streams[s].flags = Flags::from_word(value),
            RegTarget::Ir => {
                let cycle = self.cycle;
                let st = &mut self.streams[s];
                let new = value as u8;
                for bit in 0..8 {
                    if new & (1 << bit) != 0 && st.ir & (1 << bit) == 0 {
                        st.irq_raised_at[bit as usize] = Some(cycle);
                    }
                }
                st.ir = new;
            }
            RegTarget::Mr => self.streams[s].mr = value as u8,
        }
    }

    fn resolve_target(&self, s: usize, r: Reg) -> RegTarget {
        match r {
            // An underflowed window destination resolves to an
            // out-of-range slot, which `write_slot` discards — matching
            // the checked write path.
            r if r.is_window() => RegTarget::Window(
                self.streams[s]
                    .window
                    .try_slot_of(r.index())
                    .unwrap_or(usize::MAX),
            ),
            Reg::G0 | Reg::G1 | Reg::G2 | Reg::G3 => RegTarget::Global(r.index() - 8),
            Reg::Sp => RegTarget::Sp,
            Reg::Sr => RegTarget::Sr,
            Reg::Ir => RegTarget::Ir,
            Reg::Mr => RegTarget::Mr,
            _ => unreachable!(),
        }
    }

    #[inline(always)]
    fn read_reg(&mut self, s: usize, r: Reg) -> u16 {
        match r {
            r if r.is_window() => self.streams[s].window.read(r.index()),
            Reg::G0 | Reg::G1 | Reg::G2 | Reg::G3 => self.globals[(r.index() - 8) as usize],
            Reg::Sp => self.streams[s].sp,
            Reg::Sr => self.streams[s].flags.to_word(),
            Reg::Ir => self.streams[s].ir as u16,
            Reg::Mr => self.streams[s].mr as u16,
            _ => unreachable!(),
        }
    }

    #[inline(always)]
    fn write_reg(&mut self, s: usize, r: Reg, value: u16) {
        // Window writes go through the checked path so underflow is
        // counted and dropped consistently.
        if r.is_window() {
            self.streams[s].window.write(r.index(), value);
        } else {
            let target = self.resolve_target(s, r);
            self.write_target(s, target, value);
        }
    }

    #[inline]
    fn apply_awp(&mut self, s: usize, delta: i32) {
        if delta == 0 {
            return;
        }
        let outcome = self.streams[s].window.adjust(delta);
        if outcome.stall_cycles > 0 {
            self.streams[s].spill_stall += outcome.stall_cycles;
            self.emit(TraceEvent::Spill {
                stream: s,
                cycles: outcome.stall_cycles,
            });
        }
        if outcome.fault {
            let cycle = self.cycle;
            self.streams[s].raise(6, cycle);
        }
    }

    fn awp_delta(mode: AwpMode) -> i32 {
        match mode {
            AwpMode::None => 0,
            AwpMode::Inc => 1,
            AwpMode::Dec => -1,
        }
    }

    /// Executes `slot` (which just entered the EX stage) through the
    /// threaded-code dispatch table: `slot.kind` was predecoded at fetch,
    /// so dispatch is one indexed indirect call instead of a `match` over
    /// the full instruction tree.
    #[inline]
    fn execute(&mut self, slot: Slot, ex: usize) -> Status {
        HANDLERS[slot.kind as usize](self, slot, ex)
    }

    #[inline(always)]
    fn op_nop(&mut self, _slot: Slot, _ex: usize) -> Status {
        Status::Running
    }

    #[inline(always)]
    fn op_alu(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Alu {
            op,
            awp,
            rd,
            rs,
            rt,
        } = slot.instr
        else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        // Same single-borrow fast path as `op_alu_imm`.
        if matches!(awp, AwpMode::None) && rs.is_window() && rt.is_window() && rd.is_window() {
            let st = &mut self.streams[s];
            let a = st.window.read(rs.index());
            let b = st.window.read(rt.index());
            let (result, flags) = alu(op, a, b, st.flags);
            if op.writes_rd() {
                st.window.write(rd.index(), result);
            }
            st.flags = flags;
            return Status::Running;
        }
        let a = self.read_reg(s, rs);
        let b = self.read_reg(s, rt);
        let flags_in = self.streams[s].flags;
        let (result, flags) = alu(op, a, b, flags_in);
        if op.writes_rd() {
            self.write_reg(s, rd, result);
        }
        if rd != Reg::Sr || !op.writes_rd() {
            self.streams[s].flags = flags;
        }
        self.apply_awp(s, Self::awp_delta(awp));
        Status::Running
    }

    #[inline(always)]
    fn op_alu_imm(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::AluImm {
            op,
            awp,
            rd,
            rs,
            imm,
        } = slot.instr
        else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        // Window-to-window with no AWP motion is the overwhelmingly common
        // shape; resolving the stream once keeps the whole op on a single
        // borrow instead of four separate `streams[s]` walks.
        if matches!(awp, AwpMode::None) && rs.is_window() && rd.is_window() {
            let st = &mut self.streams[s];
            let a = st.window.read(rs.index());
            let (result, flags) = alu(imm_op(op), a, imm as u16, st.flags);
            if op.writes_rd() {
                st.window.write(rd.index(), result);
            }
            st.flags = flags;
            return Status::Running;
        }
        let a = self.read_reg(s, rs);
        let flags_in = self.streams[s].flags;
        let (result, flags) = alu(imm_op(op), a, imm as u16, flags_in);
        if op.writes_rd() {
            self.write_reg(s, rd, result);
        }
        if rd != Reg::Sr || !op.writes_rd() {
            self.streams[s].flags = flags;
        }
        self.apply_awp(s, Self::awp_delta(awp));
        Status::Running
    }

    #[inline(always)]
    fn op_ldi(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Ldi { awp, rd, imm } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        self.write_reg(s, rd, imm as u16);
        self.apply_awp(s, Self::awp_delta(awp));
        Status::Running
    }

    #[inline(always)]
    fn op_lui(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Lui { rd, imm } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        let low = self.read_reg(s, rd) & 0x00ff;
        self.write_reg(s, rd, ((imm as u16) << 8) | low);
        Status::Running
    }

    fn op_ld(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Ld {
            awp,
            rd,
            base,
            offset,
        } = slot.instr
        else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        let addr = self.read_reg(s, base).wrapping_add(offset as i16 as u16);
        self.data_read(slot, ex, addr, rd, Self::awp_delta(awp), false);
        Status::Running
    }

    fn op_lda(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Lda { awp, rd, addr } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        self.data_read(slot, ex, addr, rd, Self::awp_delta(awp), false);
        Status::Running
    }

    fn op_st(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::St {
            awp,
            src,
            base,
            offset,
        } = slot.instr
        else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        let addr = self.read_reg(s, base).wrapping_add(offset as i16 as u16);
        let value = self.read_reg(s, src);
        self.data_write(slot, ex, addr, value, Self::awp_delta(awp));
        Status::Running
    }

    fn op_sta(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Sta { awp, src, addr } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        let value = self.read_reg(s, src);
        self.data_write(slot, ex, addr, value, Self::awp_delta(awp));
        Status::Running
    }

    fn op_tset(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Tset { rd, base, offset } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        let addr = self.read_reg(s, base).wrapping_add(offset as i16 as u16);
        self.data_read(slot, ex, addr, rd, 0, true);
        Status::Running
    }

    #[inline(always)]
    fn op_jmp(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Jmp { cond, target } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        self.stats.flow_instructions += 1;
        if eval_cond(cond, self.streams[s].flags) {
            self.streams[s].pc = target;
            self.flush(ex, s, false, FlushCause::Jump);
        }
        Status::Running
    }

    fn op_call(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Call { target } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        self.stats.flow_instructions += 1;
        self.apply_awp(s, 1);
        let ret = slot.pc.wrapping_add(1);
        self.streams[s].window.write(0, ret);
        self.streams[s].pc = target;
        self.flush(ex, s, false, FlushCause::Jump);
        Status::Running
    }

    fn op_ret(&mut self, slot: Slot, ex: usize) -> Status {
        let Instruction::Ret { pop } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let s = slot.stream;
        self.stats.flow_instructions += 1;
        self.apply_awp(s, -(pop as i32));
        let ret = self.streams[s].window.read(0);
        self.apply_awp(s, -1);
        self.streams[s].pc = ret;
        self.flush(ex, s, false, FlushCause::Jump);
        Status::Running
    }

    fn op_reti(&mut self, slot: Slot, ex: usize) -> Status {
        let s = slot.stream;
        self.stats.flow_instructions += 1;
        if let Some(frame) = self.streams[s].service.pop() {
            self.streams[s].clear_irq(frame.bit);
            self.streams[s].pc = frame.resume_pc;
            self.streams[s].flags = frame.flags;
            self.flush(ex, s, false, FlushCause::Jump);
        }
        Status::Running
    }

    fn op_winc(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Winc { n } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        self.apply_awp(slot.stream, n as i32);
        Status::Running
    }

    fn op_wdec(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Wdec { n } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        self.apply_awp(slot.stream, -(n as i32));
        Status::Running
    }

    fn op_fork(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Fork { stream, target } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        self.stats.flow_instructions += 1;
        let t = stream as usize;
        if t < self.streams.len() {
            let cycle = self.cycle;
            if !self.streams[t].active() {
                self.streams[t].pc = target;
            } else {
                self.stats.forks_ignored += 1;
            }
            self.streams[t].raise(0, cycle);
        }
        Status::Running
    }

    fn op_signal(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Signal { stream, bit } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        let t = stream as usize;
        if t < self.streams.len() {
            let cycle = self.cycle;
            self.streams[t].raise(bit, cycle);
        }
        Status::Running
    }

    fn op_clri(&mut self, slot: Slot, _ex: usize) -> Status {
        let Instruction::Clri { bit } = slot.instr else {
            unreachable!("kind/instr mismatch");
        };
        self.streams[slot.stream].clear_irq(bit);
        Status::Running
    }

    fn op_stop(&mut self, slot: Slot, ex: usize) -> Status {
        let s = slot.stream;
        // Deactivate the current priority level; pending higher or
        // lower requests stay latched.
        let level = self.streams[s].service_level();
        self.streams[s].clear_irq(level);
        self.streams[s].pc = slot.pc.wrapping_add(1);
        self.flush(ex, s, false, FlushCause::Jump);
        Status::Running
    }

    fn op_halt(&mut self, _slot: Slot, ex: usize) -> Status {
        self.halted = true;
        // Older in-flight instructions have executed; count them as
        // retired before stopping.
        for i in ex + 1..self.config.pipeline_depth {
            let idx = self.stage_idx(i);
            if let Some(older) = self.pipe[idx].take() {
                self.retire(older);
            }
        }
        Status::Halted
    }

    fn op_brk(&mut self, slot: Slot, _ex: usize) -> Status {
        Status::Breakpoint {
            stream: slot.stream,
            pc: slot.pc,
        }
    }

    fn op_fault(&mut self, _slot: Slot, _ex: usize) -> Status {
        unreachable!("fault entries are rejected at fetch and never enter the pipe");
    }

    /// Load/`tset` path shared by `ld`, `lda` and `tset`.
    fn data_read(&mut self, slot: Slot, ex: usize, addr: u16, rd: Reg, awp: i32, tset: bool) {
        let s = slot.stream;
        if self.intmem.contains(addr) {
            let value = if tset {
                self.intmem.test_and_set(addr)
            } else {
                self.intmem.read_counted(addr)
            };
            self.write_reg(s, rd, value);
            self.apply_awp(s, awp);
            return;
        }
        if self.abi.busy() {
            self.cancel_access(slot, ex);
            return;
        }
        let Some(latency) = self.fault_checked_latency(s, addr, false) else {
            // Aborted unmapped access: the destination register keeps its
            // old value; the window adjustment still applies so frame
            // bookkeeping stays balanced.
            self.apply_awp(s, awp);
            return;
        };
        if latency == 0 {
            let value = if tset {
                let old = self.bus_read(addr);
                self.bus_write(addr, 0xffff);
                old
            } else {
                self.bus_read(addr)
            };
            self.write_reg(s, rd, value);
            self.apply_awp(s, awp);
            return;
        }
        let dest = self.resolve_target(s, rd);
        let op = if tset {
            BusOp::TestAndSet { dest }
        } else {
            BusOp::Read { dest }
        };
        self.start_access(slot, ex, addr, op, latency, awp);
    }

    /// Store path shared by `st` and `sta`.
    fn data_write(&mut self, slot: Slot, ex: usize, addr: u16, value: u16, awp: i32) {
        let s = slot.stream;
        if self.intmem.contains(addr) {
            self.intmem.write(addr, value);
            self.apply_awp(s, awp);
            return;
        }
        if self.abi.busy() {
            self.cancel_access(slot, ex);
            return;
        }
        let Some(latency) = self.fault_checked_latency(s, addr, true) else {
            // Aborted unmapped access: the store is dropped.
            self.apply_awp(s, awp);
            return;
        };
        if latency == 0 {
            self.bus_write(addr, value);
            self.apply_awp(s, awp);
            return;
        }
        self.start_access(slot, ex, addr, BusOp::Write { value }, latency, awp);
    }

    /// Cancels an external access that found the bus busy: the instruction
    /// and its younger same-stream slots are flushed, the PC rolls back to
    /// the access, and the stream waits for the bus to free (§4.1: *"If the
    /// bus was busy at the time access is requested, the instruction is
    /// flushed and a new external access is requested once the IS is out of
    /// the wait state"*).
    fn cancel_access(&mut self, slot: Slot, ex: usize) {
        let s = slot.stream;
        self.abi.reject();
        self.flush(ex, s, true, FlushCause::BusBusy);
        self.streams[s].pc = slot.pc;
        self.streams[s].wait = WaitState::BusFree;
    }

    /// Starts an external transaction: younger same-stream slots are
    /// flushed and the stream enters a wait state so other streams keep
    /// the pipeline full (§4.1).
    fn start_access(
        &mut self,
        slot: Slot,
        ex: usize,
        addr: u16,
        op: BusOp,
        latency: u32,
        awp: i32,
    ) {
        let s = slot.stream;
        let started = self.abi.start(Transaction {
            stream: s,
            addr,
            op,
            remaining: latency,
        });
        if started.is_err() {
            // Unreachable through the EX path (`data_read`/`data_write`
            // check `busy()` first), but a typed rejection degrades to a
            // cancelled access instead of aborting the whole simulation.
            self.cancel_access(slot, ex);
            return;
        }
        self.stats.external_accesses += 1;
        // Re-tag this instruction's scoreboard entry so the destination
        // stays busy until the bus delivers the data.
        for p in &mut self.streams[s].pending {
            if p.seq == slot.seq {
                p.seq = BUS_SEQ;
            }
        }
        self.flush(ex, s, false, FlushCause::Io);
        // Flushed younger instructions re-fetch after the wait.
        self.streams[s].pc = slot.pc.wrapping_add(1);
        self.streams[s].wait = WaitState::BusTransaction;
        self.apply_awp(s, awp);
        self.emit(TraceEvent::BusStart {
            stream: s,
            addr,
            latency,
        });
    }

    /// Delivers pending vectored interrupts to streams with no unexecuted
    /// instructions in flight.
    fn deliver_vectors(&mut self, ex: usize) {
        for s in 0..self.streams.len() {
            let Some(bit) = self.streams[s].pending_interrupt() else {
                continue;
            };
            let Some(target) = self.streams[s].vectors[bit as usize] else {
                // No vector installed: the bit keeps the stream active but
                // execution continues sequentially (background-style).
                continue;
            };
            if self.streams[s].wait != WaitState::None {
                continue;
            }
            // Preempt: unexecuted in-flight instructions are flushed and
            // re-run after `reti`; resume at the oldest of them (the one
            // closest to EX), or at the current PC when none are in
            // flight.
            let oldest_pc = (0..ex)
                .filter_map(|i| self.pipe[self.stage_idx(i)].as_ref())
                .filter(|sl| sl.stream == s)
                .map(|sl| sl.pc)
                .next_back();
            let resume = match oldest_pc {
                Some(pc) => {
                    self.flush(ex, s, false, FlushCause::Irq);
                    pc
                }
                None => self.streams[s].pc,
            };
            let flags = self.streams[s].flags;
            self.streams[s].service.push(ServiceFrame {
                bit,
                resume_pc: resume,
                flags,
            });
            self.streams[s].pc = target;
            self.stats.vectors_taken[s] += 1;
            if let Some(raised) = self.streams[s].irq_raised_at[bit as usize] {
                self.stats
                    .irq_latency
                    .record(self.cycle.saturating_sub(raised));
            }
            self.emit(TraceEvent::Vector {
                stream: s,
                bit,
                target,
            });
        }
    }

    /// Lets the scheduler pick a ready stream and fetches its next
    /// instruction. Returns the streams probed this cycle that lost to a
    /// same-stream data hazard, as a bitmask.
    fn fetch(&mut self) -> Result<u32, SimError> {
        // The scheduler queries readiness on demand: on most cycles the
        // slot owner is ready and no other stream is ever decoded or
        // hazard-checked. Results are memoized per cycle because the
        // reallocation scan may revisit a stream.
        let mut probed: u32 = 0;
        let mut ready: u32 = 0;
        let mut hazard: u32 = 0;
        let Self {
            scheduler,
            streams,
            stats,
            ops,
            ..
        } = self;
        let picked = scheduler.pick_with(|s| {
            let bit = 1 << s;
            if probed & bit == 0 {
                probed |= bit;
                let st = &streams[s];
                if st.active() && st.wait == WaitState::None && st.spill_stall == 0 {
                    // Addresses past the image are word 0 (`nop`). A word
                    // that does not decode reports ready, so the fetch
                    // below raises the fault on the cycle the stream is
                    // actually picked.
                    let entry = ops.get(st.pc as usize).unwrap_or(&NOP_ENTRY);
                    if entry.kind == K_FAULT || !stream_hazard_entry(st, entry) {
                        ready |= bit;
                    } else {
                        stats.hazard_stalls[s] += 1;
                        hazard |= bit;
                    }
                }
            }
            ready & bit != 0
        });
        let Some(s) = picked else {
            self.stats.bubbles += 1;
            return Ok(hazard);
        };
        let pc = self.streams[s].pc;
        let e = self.ops.get(pc as usize).copied().unwrap_or(NOP_ENTRY);
        if e.kind == K_FAULT {
            return Err(SimError::Decode {
                stream: s,
                pc,
                word: self.program.word(pc),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let st = &mut self.streams[s];
        st.pc = pc.wrapping_add(1);
        if e.dst_mask != 0 {
            st.pending.push(PendingWrite {
                seq,
                mask: e.dst_mask,
            });
            st.pending_mask |= e.dst_mask;
        }
        if e.moves_window {
            st.window_moves += 1;
        }
        let idx0 = self.stage_idx(0);
        debug_assert!(self.pipe[idx0].is_none(), "fetch into occupied pipe slot");
        self.pipe[idx0] = Some(Slot {
            stream: s,
            pc,
            instr: e.instr,
            seq,
            moves_window: e.moves_window,
            kind: e.kind,
        });
        self.live_slots += 1;
        Ok(hazard)
    }

    // ---- snapshot / restore ---------------------------------------------

    /// Serializes the complete machine state as a `disc-snap/v2` blob:
    /// every stream context (registers, flags, service stack, vectors,
    /// in-flight writes, stack window + AWP), the pipeline, internal
    /// memory, scheduler and ABI state, all statistics, and the external
    /// bus via [`DataBus::save_state`].
    ///
    /// The blob begins with a fingerprint of the machine configuration and
    /// a hash of the program image; [`restore`](Self::restore) refuses
    /// blobs taken under an incompatible configuration or a different
    /// program. The fingerprint deliberately excludes
    /// [`StepMode`]/[`DispatchMode`] — those knobs are timing-invisible,
    /// so a snapshot taken under one mode restores under any other.
    ///
    /// Snapshots capture state *between* cycles; call this only at a cycle
    /// boundary (never from inside a [`TraceSink`] callback).
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert_eq!(self.bus_owed, 0, "public calls settle the bus");
        let mut w = SnapWriter::new();
        disc_snap::write_header(
            &mut w,
            self.config.fingerprint(),
            program_hash(&self.program),
        );
        w.put_u64(self.cycle);
        w.put_bool(self.halted);
        w.put_u64(self.next_seq);
        w.put_bool(self.idle_exit);
        w.put_usize(self.globals.len());
        for &g in &self.globals {
            w.put_u16(g);
        }
        w.put_usize(self.streams.len());
        for st in &self.streams {
            st.save_into(&mut w);
        }
        self.intmem.save_into(&mut w);
        self.scheduler.save_into(&mut w);
        self.abi.save_into(&mut w);
        // Pipeline slots in logical stage order; the instruction and its
        // predecoded properties re-derive from (pc) at restore, so only
        // the identity of each in-flight fetch is stored.
        let depth = self.config.pipeline_depth;
        w.put_usize(depth);
        for i in 0..depth {
            match &self.pipe[self.stage_idx(i)] {
                Some(slot) => {
                    w.put_u8(1);
                    w.put_usize(slot.stream);
                    w.put_u16(slot.pc);
                    w.put_u64(slot.seq);
                }
                None => w.put_u8(0),
            }
        }
        self.stats.save_into(&mut w);
        w.put_u64(self.skip_stats.skips);
        w.put_u64(self.skip_stats.cycles_skipped);
        w.put_u64(self.sb_stats.bursts);
        w.put_u64(self.sb_stats.burst_cycles);
        w.put_u64(self.sb_stats.burst_issues);
        w.put_u64(self.sb_stats.entry_rejects);
        // Run-loop pacing state: without it, a restored machine would
        // probe for bursts/skips on a different schedule than the one
        // that produced the snapshot, perturbing the diagnostic counters.
        w.put_u64(self.sb_backoff);
        w.put_bool(self.sb_carry);
        w.put_u64(self.sb_carry_len);
        w.put_bool(self.skip_carry);
        match &self.pending_error {
            None => w.put_u8(0),
            Some(SimError::Decode { stream, pc, word }) => {
                w.put_u8(1);
                w.put_usize(*stream);
                w.put_u16(*pc);
                w.put_u32(*word);
            }
            Some(SimError::UnhandledStackFault { stream }) => {
                w.put_u8(2);
                w.put_usize(*stream);
            }
            Some(SimError::UnhandledBusFault { stream, addr }) => {
                w.put_u8(3);
                w.put_usize(*stream);
                w.put_u16(*addr);
            }
        }
        w.put_bytes(&self.bus.save_state());
        w.into_bytes()
    }

    /// Restores state serialized by [`snapshot`](Self::snapshot) onto this
    /// machine.
    ///
    /// The machine must have been constructed with a configuration whose
    /// [`fingerprint`](MachineConfig::fingerprint) matches the snapshot's
    /// (step/dispatch mode may differ), the same program, and a bus of the
    /// same kind and construction — trait objects cannot be rebuilt from
    /// bytes, so restore *applies* serialized state to an
    /// identically-assembled machine rather than conjuring one.
    ///
    /// Per-cycle scratch (pending trace events, IRQ staging) is cleared,
    /// so an attached [`TraceSink`] resumes cleanly at the restored cycle
    /// with no stale events from before the snapshot, and the bus's next
    /// event is asked anew.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the blob is malformed, was produced
    /// under an incompatible configuration or different program, or does
    /// not match this machine's bus.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let header = disc_snap::read_header(&mut r)?;
        let fp = self.config.fingerprint();
        if header.config_fingerprint != fp {
            return Err(SnapError::FingerprintMismatch {
                expected: fp,
                found: header.config_fingerprint,
            });
        }
        let ph = program_hash(&self.program);
        if header.program_hash != ph {
            return Err(SnapError::ProgramMismatch {
                expected: ph,
                found: header.program_hash,
            });
        }
        self.cycle = r.get_u64()?;
        self.halted = r.get_bool()?;
        self.next_seq = r.get_u64()?;
        self.idle_exit = r.get_bool()?;
        let nglobals = r.get_usize()?;
        if nglobals != self.globals.len() {
            return Err(SnapError::Corrupt(format!(
                "global register count mismatch: machine {}, snapshot {nglobals}",
                self.globals.len()
            )));
        }
        for g in self.globals.iter_mut() {
            *g = r.get_u16()?;
        }
        let nstreams = r.get_usize()?;
        if nstreams != self.streams.len() {
            return Err(SnapError::Corrupt(format!(
                "stream count mismatch: machine {}, snapshot {nstreams}",
                self.streams.len()
            )));
        }
        for st in self.streams.iter_mut() {
            st.restore_from(&mut r)?;
        }
        self.intmem.restore_from(&mut r)?;
        self.scheduler.restore_from(&mut r)?;
        self.abi.restore_from(&mut r)?;
        let depth = r.get_usize()?;
        if depth != self.config.pipeline_depth {
            return Err(SnapError::Corrupt(format!(
                "pipeline depth mismatch: machine {}, snapshot {depth}",
                self.config.pipeline_depth
            )));
        }
        self.pipe = [None; MAX_PIPE];
        self.pipe_head = 0;
        self.live_slots = 0;
        for i in 0..depth {
            if r.get_u8()? == 0 {
                continue;
            }
            let stream = r.get_usize()?;
            if stream >= self.streams.len() {
                return Err(SnapError::Corrupt(format!(
                    "pipe slot stream {stream} out of range"
                )));
            }
            let pc = r.get_u16()?;
            let seq = r.get_u64()?;
            let entry = self.ops.get(pc as usize).copied().unwrap_or(NOP_ENTRY);
            if entry.kind == K_FAULT {
                // Undecodable words fault at fetch and never enter the
                // pipe, so a snapshot can only claim one through
                // corruption.
                return Err(SnapError::Corrupt(format!(
                    "pipe slot holds undecodable word at pc {pc:#06x}"
                )));
            }
            self.pipe[i] = Some(Slot {
                stream,
                pc,
                instr: entry.instr,
                seq,
                moves_window: entry.moves_window,
                kind: entry.kind,
            });
            self.live_slots += 1;
        }
        self.stats.restore_from(&mut r)?;
        self.skip_stats.skips = r.get_u64()?;
        self.skip_stats.cycles_skipped = r.get_u64()?;
        self.sb_stats.bursts = r.get_u64()?;
        self.sb_stats.burst_cycles = r.get_u64()?;
        self.sb_stats.burst_issues = r.get_u64()?;
        self.sb_stats.entry_rejects = r.get_u64()?;
        self.sb_backoff = r.get_u64()?;
        self.sb_carry = r.get_bool()?;
        self.sb_carry_len = r.get_u64()?;
        self.skip_carry = r.get_bool()?;
        self.pending_error = match r.get_u8()? {
            0 => None,
            1 => Some(SimError::Decode {
                stream: r.get_usize()?,
                pc: r.get_u16()?,
                word: r.get_u32()?,
            }),
            2 => Some(SimError::UnhandledStackFault {
                stream: r.get_usize()?,
            }),
            3 => Some(SimError::UnhandledBusFault {
                stream: r.get_usize()?,
                addr: r.get_u16()?,
            }),
            t => return Err(SnapError::Corrupt(format!("bad pending-error tag {t}"))),
        };
        let bus_state = r.get_bytes()?;
        self.bus.restore_state(bus_state)?;
        r.finish()?;
        // Per-cycle scratch never crosses a snapshot: events staged before
        // the snapshot belong to the cycle that produced them, not to the
        // first cycle after restore.
        self.events.clear();
        self.irq_buf.clear();
        // The bus state was just replaced wholesale.
        self.bus_due = None;
        self.bus_owed = 0;
        Ok(())
    }
}

// A machine must be movable between threads: `disc-serve` parks thousands
// of sessions behind a worker pool and runs whichever is due on whatever
// worker is free. `DataBus`, `Peripheral` and `TraceSink` all carry a
// `Send` supertrait so this holds by construction; this assertion turns
// any regression into a compile error here rather than a trait-bound
// error deep inside the server.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>()
};

/// Order-sensitive hash of the full program image — words, entry points
/// and interrupt vectors — used to pin snapshots to the exact program they
/// were taken under.
fn program_hash(program: &Program) -> u64 {
    let mut h: u64 = 0x4449_5343; // "DISC"
    let mut fold = |x: u64| h = splitmix64(h ^ x);
    fold(program.len() as u64);
    for (addr, word) in program.iter() {
        fold(addr as u64);
        fold(word as u64);
    }
    for s in 0..disc_isa::MAX_STREAMS {
        match program.entry(s) {
            Some(pc) => fold(0x100 | pc as u64),
            None => fold(0),
        }
        for bit in 1..disc_isa::IRQ_LEVELS as u8 {
            match program.vector(s, bit) {
                Some(pc) => fold(0x200 | (bit as u64) << 16 | pc as u64),
                None => fold(1),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload touching every hot-path feature at once: same-stream RAW
    /// hazards, taken/untaken jumps, stack-window calls, external bus
    /// traffic, internal memory, and a vectored interrupt handler.
    const MIXED_SRC: &str = r#"
    .stream 0, alu
    .stream 1, io
    .stream 2, calls
    .vector 3, 5, isr
alu:
    ldi r0, 25
    ldi r1, 0
aloop:
    add r1, r1, r0      ; RAW on r1 every iteration
    subi r0, r0, 1
    jnz aloop
    sta r1, 0x40
    jmp alu
io:
    lui r0, 0x80        ; external address space
ioloop:
    ld r1, [r0]
    addi r1, r1, 1      ; depends on the bus data
    st r1, [r0]
    jmp ioloop
calls:
    ldi r2, 6
cloop:
    call bump
    subi r2, r2, 1
    jnz cloop
    jmp calls
bump:
    winc 1              ; r0 = scratch, r1 = ret, r2 = caller r2
    addi r0, r0, 3
    wdec 1
    ret
isr:
    lda r0, 0x41
    addi r0, r0, 1
    sta r0, 0x41
    reti
"#;

    /// The program image never changes after construction, so the
    /// predecoded store must be exactly `predecode` of every program word
    /// — addresses past the image included (word 0, `nop`) and
    /// undecodable words included (fault entries, reported lazily).
    #[test]
    fn predecoded_store_covers_every_address() {
        let mixed = Program::assemble(MIXED_SRC).expect("mixed program assembles");
        let mut patched = mixed.clone();
        patched.set_word(4, 63 << 18); // unassigned opcode
        assert_eq!(predecode(patched.word(4)).kind, K_FAULT);
        for program in [mixed, patched] {
            let m = Machine::new(MachineConfig::disc1(), &program);
            for a in 0..=u16::MAX {
                assert_eq!(
                    m.ops.get(a as usize).copied().unwrap_or(NOP_ENTRY),
                    predecode(program.word(a)),
                    "predecoded store diverges at {a:#06x}"
                );
            }
        }
    }
}
