//! The [`Board`] model: a parsed, fully validated board definition and
//! the machinery turning it into a running [`Machine`].
//!
//! Validation is *polite*: every rule that [`MachineConfig::validate`],
//! [`PeripheralBus::map`](disc_bus::PeripheralBus) or a peripheral
//! constructor would enforce with a panic is checked here first and
//! reported as a [`BoardError`] carrying the source line and dotted field
//! path, so a malformed board document can never take down a host (the
//! session server nacks it instead).

use disc_core::{
    BusFaultPolicy, DataBus, DispatchMode, Machine, MachineConfig, SchedulePolicy, StepMode,
    WindowPolicy,
};
use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
use disc_isa::Program;

use disc_bus::{
    Actuator, BlockStorage, DmaEngine, ExtRam, PacketPort, PeripheralBus, SensorPort, Shared,
    Timer, Uart, Watchdog,
};

use crate::toml::{self, Table, Value};

/// Largest accepted latency/period/timeout knob, in cycles. Big enough
/// for any plausible device, small enough that a typo'd latency cannot
/// freeze a simulation for hours.
pub const MAX_LATENCY: u32 = 1_000_000;

/// A board-definition error: the source line, the dotted field path
/// (`machine.streams`, `peripheral.kind`, …) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoardError {
    /// 1-based source line the error is anchored to (0 when the error has
    /// no single line, e.g. a missing section).
    pub line: usize,
    /// Dotted field path, e.g. `machine.schedule`.
    pub field: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for BoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.field, self.message)
        } else {
            write!(f, "line {}: {}: {}", self.line, self.field, self.message)
        }
    }
}

impl std::error::Error for BoardError {}

pub(crate) fn err(line: usize, field: &str, message: impl Into<String>) -> BoardError {
    BoardError {
        line,
        field: field.to_string(),
        message: message.into(),
    }
}

/// Interrupt wiring for a peripheral: destination stream and IR bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqLine {
    /// Stream receiving the interrupt.
    pub stream: usize,
    /// IR bit raised (1..=7; bit 0 never vectors).
    pub bit: u8,
}

/// What kind of device a `[[peripheral]]` entry instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum PeripheralKind {
    /// Word-addressed external RAM (`words`, `latency`).
    ExtRam { words: usize, latency: u32 },
    /// Programmable timer (`period`, `irq_stream`, `irq_bit`, `one_shot`).
    Timer {
        period: u32,
        irq: IrqLine,
        one_shot: bool,
    },
    /// Watchdog (`timeout`, `irq_stream`, `irq_bit`).
    Watchdog { timeout: u32, irq: IrqLine },
    /// UART (`word_cycles`, optional `capacity`, optional IRQ).
    Uart {
        word_cycles: u32,
        capacity: Option<usize>,
        irq: Option<IrqLine>,
    },
    /// Triangle-wave sensor (`period`, `latency`, `amp`, optional IRQ).
    Sensor {
        period: u32,
        latency: u32,
        amp: u16,
        irq: Option<IrqLine>,
    },
    /// Write-only actuator (`latency`).
    Actuator { latency: u32 },
    /// DMA engine — a bus *master* contending with the streams
    /// (`word_latency`, optional `stall`, optional IRQ).
    Dma {
        word_latency: u32,
        stall: Option<u32>,
        irq: Option<IrqLine>,
    },
    /// Block-storage device (`blocks`, `block_words`, `read_latency`,
    /// `write_latency`, optional IRQ).
    Storage {
        blocks: u16,
        block_words: u16,
        read_latency: u32,
        write_latency: u32,
        irq: Option<IrqLine>,
    },
    /// Bursty packet port (`seed`, `interval`, `mean`, optional
    /// `capacity`, optional IRQ).
    Packet {
        seed: u64,
        interval: u32,
        mean: f64,
        capacity: Option<usize>,
        irq: Option<IrqLine>,
    },
}

/// One mapped peripheral: base address plus device parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PeripheralSpec {
    /// First mapped address.
    pub base: u16,
    /// Device parameters.
    pub kind: PeripheralKind,
    line: usize,
}

impl PeripheralSpec {
    /// Number of mapped addresses this spec occupies.
    pub fn map_len(&self) -> u32 {
        match &self.kind {
            PeripheralKind::ExtRam { words, .. } => *words as u32,
            PeripheralKind::Timer { .. } => u32::from(Timer::REGS),
            PeripheralKind::Watchdog { .. } => u32::from(Watchdog::REGS),
            PeripheralKind::Uart { .. } => u32::from(Uart::REGS),
            PeripheralKind::Sensor { .. } => u32::from(SensorPort::REGS),
            PeripheralKind::Actuator { .. } => 2,
            PeripheralKind::Dma { .. } => u32::from(DmaEngine::REGS),
            PeripheralKind::Storage { .. } => u32::from(BlockStorage::REGS),
            PeripheralKind::Packet { .. } => u32::from(PacketPort::REGS),
        }
    }

    fn map_onto(&self, bus: &mut PeripheralBus) -> Result<(), disc_bus::MapError> {
        let len = self.map_len() as u16;
        match &self.kind {
            PeripheralKind::ExtRam { words, latency } => {
                bus.map(self.base, len, Box::new(ExtRam::new(*words, *latency)))
            }
            PeripheralKind::Timer {
                period,
                irq,
                one_shot,
            } => {
                let timer = if *one_shot {
                    Timer::one_shot(*period, irq.stream, irq.bit)
                } else {
                    Timer::periodic(*period, irq.stream, irq.bit)
                };
                bus.map(self.base, len, Box::new(timer))
            }
            PeripheralKind::Watchdog { timeout, irq } => bus.map(
                self.base,
                len,
                Box::new(Watchdog::new(*timeout, irq.stream, irq.bit)),
            ),
            PeripheralKind::Uart {
                word_cycles,
                capacity,
                irq,
            } => {
                let mut uart = Uart::new(*word_cycles);
                if let Some(capacity) = capacity {
                    uart = uart.with_rx_capacity(*capacity);
                }
                if let Some(irq) = irq {
                    uart = uart.with_irq(irq.stream, irq.bit);
                }
                bus.map(self.base, len, Box::new(uart))
            }
            PeripheralKind::Sensor {
                period,
                latency,
                amp,
                irq,
            } => {
                let mut sensor = SensorPort::triangle(*period, *latency, *amp);
                if let Some(irq) = irq {
                    sensor = sensor.with_irq(irq.stream, irq.bit);
                }
                bus.map(self.base, len, Box::new(sensor))
            }
            PeripheralKind::Actuator { latency } => {
                bus.map(self.base, len, Box::new(Actuator::new(*latency)))
            }
            PeripheralKind::Dma {
                word_latency,
                stall,
                irq,
            } => {
                let mut dma = DmaEngine::new(*word_latency);
                if let Some(stall) = stall {
                    dma = dma.with_stall(*stall);
                }
                if let Some(irq) = irq {
                    dma = dma.with_irq(irq.stream, irq.bit);
                }
                bus.map_dma(self.base, &Shared::new(dma))
            }
            PeripheralKind::Storage {
                blocks,
                block_words,
                read_latency,
                write_latency,
                irq,
            } => {
                let mut storage =
                    BlockStorage::new(*blocks, *block_words, *read_latency, *write_latency);
                if let Some(irq) = irq {
                    storage = storage.with_irq(irq.stream, irq.bit);
                }
                bus.map(self.base, len, Box::new(storage))
            }
            PeripheralKind::Packet {
                seed,
                interval,
                mean,
                capacity,
                irq,
            } => {
                let mut packet = PacketPort::new(*seed, *interval, *mean);
                if let Some(capacity) = capacity {
                    packet = packet.with_capacity(*capacity);
                }
                if let Some(irq) = irq {
                    packet = packet.with_irq(irq.stream, irq.bit);
                }
                bus.map(self.base, len, Box::new(packet))
            }
        }
    }
}

/// A parsed and validated board definition.
///
/// Obtain one with [`Board::parse`]; turn it into a machine with
/// [`Board::machine`].
#[derive(Debug, Clone)]
pub struct Board {
    /// Board name (root-level `name` key; defaults to `"board"`).
    pub name: String,
    /// The machine configuration described by `[machine]`.
    pub config: MachineConfig,
    /// Assembly source from `[program] source`, when present. Boards used
    /// with externally supplied programs (the fuzzer) omit it;
    /// [`Board::machine`] requires it.
    pub source: Option<String>,
    /// Mapped peripherals in declaration order.
    pub peripherals: Vec<PeripheralSpec>,
    /// Fault-injection plan from `[faults]`/`[[fault]]`, when present.
    pub fault_plan: Option<FaultPlan>,
    /// Root-level `idle_exit` override, applied after construction.
    pub idle_exit: Option<bool>,
    program_line: usize,
}

impl Board {
    /// Parses and validates a board document.
    ///
    /// # Errors
    ///
    /// Returns a [`BoardError`] pointing at the offending line for any
    /// syntax or validation problem: unknown keys or peripheral kinds,
    /// overlapping mappings, schedule slots naming dead streams,
    /// out-of-range latencies, malformed fault plans.
    pub fn parse(text: &str) -> Result<Board, BoardError> {
        let doc = toml::parse(text)?;
        for table in &doc.tables {
            match (table.name.as_str(), table.array) {
                ("", false) | ("machine", false) | ("program", false) | ("faults", false) => {}
                ("peripheral", true) | ("fault", true) => {}
                ("peripheral" | "fault", false) => {
                    return Err(err(
                        table.line,
                        &table.name,
                        format!(
                            "use [[{}]] (array of tables), not [{}]",
                            table.name, table.name
                        ),
                    ));
                }
                (name, _) => {
                    return Err(err(table.line, name, "unknown section"));
                }
            }
        }

        let root = &doc.tables[0];
        check_keys(root, "", &["name", "idle_exit"])?;
        let name = get_str(root, "", "name")?
            .map(|(s, _)| s)
            .unwrap_or_else(|| "board".to_string());
        let idle_exit = get_bool(root, "", "idle_exit")?;

        let config = parse_machine(&doc)?;

        let source = match doc.table("program") {
            Some(table) => {
                check_keys(table, "program", &["source"])?;
                Some(req_str(table, "program", "source")?)
            }
            None => None,
        };
        let program_line = doc.table("program").map(|t| t.line).unwrap_or(0);

        let mut peripherals = Vec::new();
        for table in doc.array_tables("peripheral") {
            peripherals.push(parse_peripheral(table, &config)?);
        }
        check_mappings(&peripherals)?;

        let fault_plan = parse_faults(&doc, &config)?;

        Ok(Board {
            name,
            config,
            source: source.map(|(s, _)| s),
            peripherals,
            fault_plan,
            idle_exit,
            program_line,
        })
    }

    /// Whether this board needs an explicit [`PeripheralBus`] (it maps
    /// peripherals or injects faults). Boards that don't use the
    /// machine's built-in flat external memory, as a machine built with
    /// `Machine::new` does.
    pub fn has_custom_bus(&self) -> bool {
        !self.peripherals.is_empty() || self.fault_plan.is_some()
    }

    /// Builds the data bus described by the peripheral and fault
    /// sections, or `None` when the board uses the default flat memory.
    pub fn build_bus(&self) -> Option<Box<dyn DataBus>> {
        if !self.has_custom_bus() {
            return None;
        }
        let mut bus = PeripheralBus::new();
        for spec in &self.peripherals {
            spec.map_onto(&mut bus)
                .expect("board mappings are validated at parse time");
        }
        let bus: Box<dyn DataBus> = Box::new(bus);
        Some(match &self.fault_plan {
            Some(plan) => Box::new(FaultInjector::new(plan.clone(), bus)),
            None => bus,
        })
    }

    /// Reseeds the fault plan (soak campaigns re-run one board under many
    /// seeds). A board without faults is returned unchanged.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        if let Some(plan) = &self.fault_plan {
            let mut reseeded = FaultPlan::new(seed);
            for &fault in plan.faults() {
                reseeded = reseeded.with(fault);
            }
            self.fault_plan = Some(reseeded);
        }
        self
    }

    /// Assembles the board's `[program]` section.
    ///
    /// # Errors
    ///
    /// Errors when the board has no program or the source fails to
    /// assemble.
    pub fn program(&self) -> Result<Program, BoardError> {
        let Some(source) = &self.source else {
            return Err(err(
                0,
                "program",
                "board has no [program] section but a program is required here",
            ));
        };
        Program::assemble(source).map_err(|e| {
            err(
                self.program_line,
                "program.source",
                format!("assembly failed: {e}"),
            )
        })
    }

    /// Builds the machine: config, assembled program, wired bus, fault
    /// plan and idle-exit override.
    ///
    /// # Errors
    ///
    /// Errors when the board has no `[program]` or it fails to assemble.
    pub fn machine(&self) -> Result<Machine, BoardError> {
        self.machine_with_modes(self.config.step_mode, self.config.dispatch_mode)
    }

    /// [`Board::machine`] with an explicit step mode. `dispatch` sets
    /// the inert [`DispatchMode`] shim, kept only while the repository
    /// benchmark still names it; callers in this workspace set
    /// `config.step_mode` on a copy of the board and call
    /// [`Board::machine`].
    ///
    /// # Errors
    ///
    /// Errors when the board has no `[program]` or it fails to assemble.
    pub fn machine_with_modes(
        &self,
        step: StepMode,
        dispatch: DispatchMode,
    ) -> Result<Machine, BoardError> {
        let program = self.program()?;
        let config = self
            .config
            .clone()
            .with_step_mode(step)
            .with_dispatch_mode(dispatch);
        let mut machine = match self.build_bus() {
            Some(bus) => Machine::with_bus(config, &program, bus),
            None => Machine::new(config, &program),
        };
        if let Some(idle_exit) = self.idle_exit {
            machine.set_idle_exit(idle_exit);
        }
        Ok(machine)
    }
}

// ---------------------------------------------------------------------
// Typed field extraction.

fn field(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

fn check_keys(table: &Table, prefix: &str, known: &[&str]) -> Result<(), BoardError> {
    for entry in &table.entries {
        if !known.contains(&entry.key.as_str()) {
            return Err(err(
                entry.line,
                &field(prefix, &entry.key),
                format!("unknown key (known keys: {})", known.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get_int(table: &Table, prefix: &str, key: &str) -> Result<Option<(i64, usize)>, BoardError> {
    match table.get(key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            Value::Int(v) => Ok(Some((v, entry.line))),
            ref other => Err(err(
                entry.line,
                &field(prefix, key),
                format!("expected an integer, got {}", other.type_name()),
            )),
        },
    }
}

fn get_int_in(
    table: &Table,
    prefix: &str,
    key: &str,
    min: i64,
    max: i64,
) -> Result<Option<(i64, usize)>, BoardError> {
    match get_int(table, prefix, key)? {
        None => Ok(None),
        Some((v, line)) => {
            if (min..=max).contains(&v) {
                Ok(Some((v, line)))
            } else {
                Err(err(
                    line,
                    &field(prefix, key),
                    format!("{v} is out of range {min}..={max}"),
                ))
            }
        }
    }
}

fn req_int_in(
    table: &Table,
    prefix: &str,
    key: &str,
    min: i64,
    max: i64,
) -> Result<(i64, usize), BoardError> {
    get_int_in(table, prefix, key, min, max)?.ok_or_else(|| {
        err(
            table.line.max(1),
            &field(prefix, key),
            "missing required key",
        )
    })
}

fn get_str(table: &Table, prefix: &str, key: &str) -> Result<Option<(String, usize)>, BoardError> {
    match table.get(key) {
        None => Ok(None),
        Some(entry) => match &entry.value {
            Value::Str(s) => Ok(Some((s.clone(), entry.line))),
            other => Err(err(
                entry.line,
                &field(prefix, key),
                format!("expected a string, got {}", other.type_name()),
            )),
        },
    }
}

fn req_str(table: &Table, prefix: &str, key: &str) -> Result<(String, usize), BoardError> {
    get_str(table, prefix, key)?.ok_or_else(|| {
        err(
            table.line.max(1),
            &field(prefix, key),
            "missing required key",
        )
    })
}

fn get_bool(table: &Table, prefix: &str, key: &str) -> Result<Option<bool>, BoardError> {
    match table.get(key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            Value::Bool(v) => Ok(Some(v)),
            ref other => Err(err(
                entry.line,
                &field(prefix, key),
                format!("expected a boolean, got {}", other.type_name()),
            )),
        },
    }
}

fn get_f64(table: &Table, prefix: &str, key: &str) -> Result<Option<(f64, usize)>, BoardError> {
    match table.get(key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            Value::Float(v) => Ok(Some((v, entry.line))),
            Value::Int(v) => Ok(Some((v as f64, entry.line))),
            ref other => Err(err(
                entry.line,
                &field(prefix, key),
                format!("expected a number, got {}", other.type_name()),
            )),
        },
    }
}

fn get_array(
    table: &Table,
    prefix: &str,
    key: &str,
) -> Result<Option<(Vec<i64>, usize)>, BoardError> {
    match table.get(key) {
        None => Ok(None),
        Some(entry) => match &entry.value {
            Value::Array(items) => Ok(Some((items.clone(), entry.line))),
            other => Err(err(
                entry.line,
                &field(prefix, key),
                format!("expected an array, got {}", other.type_name()),
            )),
        },
    }
}

fn latency_arg(table: &Table, prefix: &str, key: &str) -> Result<Option<u32>, BoardError> {
    Ok(get_int_in(table, prefix, key, 1, i64::from(MAX_LATENCY))?.map(|(v, _)| v as u32))
}

fn req_latency(table: &Table, prefix: &str, key: &str) -> Result<u32, BoardError> {
    Ok(req_int_in(table, prefix, key, 1, i64::from(MAX_LATENCY))?.0 as u32)
}

// ---------------------------------------------------------------------
// Section parsers.

fn parse_machine(doc: &toml::Doc) -> Result<MachineConfig, BoardError> {
    let mut config = MachineConfig::disc1();
    let Some(table) = doc.table("machine") else {
        return Ok(config);
    };
    check_keys(
        table,
        "machine",
        &[
            "streams",
            "pipeline_depth",
            "schedule",
            "weights",
            "partition",
            "internal_words",
            "window_depth",
            "window_policy",
            "ext_latency",
            "bus_fault",
            "abi_timeout",
            "bus_error_bit",
        ],
    )?;
    if let Some((v, _)) = get_int_in(table, "machine", "streams", 1, 8)? {
        config = config.with_streams(v as usize);
    }
    if let Some((v, _)) = get_int_in(table, "machine", "pipeline_depth", 3, 8)? {
        config = config.with_pipeline_depth(v as usize);
    }
    if let Some((v, _)) = get_int_in(table, "machine", "internal_words", 16, 0x8000)? {
        config.internal_words = v as usize;
    }
    if let Some((v, _)) = get_int_in(table, "machine", "window_depth", 9, 0x8000)? {
        config = config.with_window_depth(v as usize);
    }
    if let Some((policy, line)) = get_str(table, "machine", "window_policy")? {
        config = config.with_window_policy(match policy.as_str() {
            "auto-spill" => WindowPolicy::AutoSpill,
            "fault" => WindowPolicy::Fault,
            other => {
                return Err(err(
                    line,
                    "machine.window_policy",
                    format!("unknown window policy {other:?} (known: auto-spill, fault)"),
                ));
            }
        });
    }
    if let Some(latency) = latency_arg(table, "machine", "ext_latency")? {
        config = config.with_default_ext_latency(latency);
    }
    if let Some((policy, line)) = get_str(table, "machine", "bus_fault")? {
        config = config.with_bus_fault(match policy.as_str() {
            "legacy" => BusFaultPolicy::Legacy,
            "fault" => BusFaultPolicy::Fault,
            other => {
                return Err(err(
                    line,
                    "machine.bus_fault",
                    format!("unknown bus-fault policy {other:?} (known: legacy, fault)"),
                ));
            }
        });
    }
    if let Some((v, _)) = get_int_in(table, "machine", "abi_timeout", 0, i64::from(MAX_LATENCY))? {
        config = config.with_abi_timeout(v as u64);
    }
    if let Some((v, _)) = get_int_in(table, "machine", "bus_error_bit", 1, 7)? {
        config = config.with_bus_error_bit(v as u8);
    }

    let schedule = get_array(table, "machine", "schedule")?;
    let weights = get_array(table, "machine", "weights")?;
    let partition = get_array(table, "machine", "partition")?;
    let given = [schedule.is_some(), weights.is_some(), partition.is_some()]
        .iter()
        .filter(|&&g| g)
        .count();
    if given > 1 {
        let line = [&schedule, &weights, &partition]
            .iter()
            .filter_map(|o| o.as_ref().map(|(_, line)| *line))
            .max()
            .unwrap_or(table.line);
        return Err(err(
            line,
            "machine.schedule",
            "give at most one of schedule, weights, partition",
        ));
    }
    if let Some((shares, line)) = partition {
        if shares.len() != config.streams {
            return Err(err(
                line,
                "machine.partition",
                format!(
                    "{} shares given but the machine has {} streams",
                    shares.len(),
                    config.streams
                ),
            ));
        }
        let mut total: i64 = 0;
        for &share in &shares {
            if !(0..=16).contains(&share) {
                return Err(err(
                    line,
                    "machine.partition",
                    format!("share {share} is out of range 0..=16"),
                ));
            }
            total += share;
        }
        if total != disc_core::SEQUENCE_SLOTS as i64 {
            return Err(err(
                line,
                "machine.partition",
                format!(
                    "shares sum to {total} but must sum to {}",
                    disc_core::SEQUENCE_SLOTS
                ),
            ));
        }
        let shares: Vec<u32> = shares.iter().map(|&s| s as u32).collect();
        config = config.with_schedule(SchedulePolicy::partitioned(&shares));
    }
    match (schedule, weights) {
        (Some(_), Some(_)) => unreachable!("rejected above"),
        (Some((slots, line)), None) => {
            if slots.is_empty() {
                return Err(err(line, "machine.schedule", "schedule must not be empty"));
            }
            let mut seq = Vec::with_capacity(slots.len());
            for (i, &slot) in slots.iter().enumerate() {
                if slot < 0 || slot as usize >= config.streams {
                    return Err(err(
                        line,
                        "machine.schedule",
                        format!(
                            "slot {i} names stream {slot} but the machine has {} streams",
                            config.streams
                        ),
                    ));
                }
                seq.push(slot as u8);
            }
            config = config.with_schedule(SchedulePolicy::Sequence(seq));
        }
        (None, Some((raw, line))) => {
            if raw.len() != config.streams {
                return Err(err(
                    line,
                    "machine.weights",
                    format!(
                        "{} weights given but the machine has {} streams",
                        raw.len(),
                        config.streams
                    ),
                ));
            }
            let mut weights = Vec::with_capacity(raw.len());
            for &w in &raw {
                if !(0..=0x10000).contains(&w) {
                    return Err(err(
                        line,
                        "machine.weights",
                        format!("weight {w} is out of range 0..=65536"),
                    ));
                }
                weights.push(w as u32);
            }
            if weights.iter().all(|&w| w == 0) {
                return Err(err(
                    line,
                    "machine.weights",
                    "at least one weight must be nonzero",
                ));
            }
            config = config.with_schedule(SchedulePolicy::WeightedDeficit(weights));
        }
        (None, None) => {}
    }
    Ok(config)
}

const PERIPHERAL_KINDS: &str =
    "ext-ram, timer, watchdog, uart, sensor, actuator, dma, storage, packet";

fn parse_irq(table: &Table, streams: usize, required: bool) -> Result<Option<IrqLine>, BoardError> {
    let stream = get_int(table, "peripheral", "irq_stream")?;
    let bit = get_int_in(table, "peripheral", "irq_bit", 1, 7)?;
    match (stream, bit) {
        (Some((stream, line)), Some((bit, _))) => {
            if stream < 0 || stream as usize >= streams {
                return Err(err(
                    line,
                    "peripheral.irq_stream",
                    format!("names stream {stream} but the machine has {streams} streams"),
                ));
            }
            Ok(Some(IrqLine {
                stream: stream as usize,
                bit: bit as u8,
            }))
        }
        (None, None) => {
            if required {
                Err(err(
                    table.line,
                    "peripheral.irq_stream",
                    "this peripheral kind requires irq_stream and irq_bit",
                ))
            } else {
                Ok(None)
            }
        }
        (Some((_, line)), None) => Err(err(
            line,
            "peripheral.irq_stream",
            "irq_stream and irq_bit must be given together",
        )),
        (None, Some((_, line))) => Err(err(
            line,
            "peripheral.irq_bit",
            "irq_stream and irq_bit must be given together",
        )),
    }
}

fn parse_peripheral(table: &Table, config: &MachineConfig) -> Result<PeripheralSpec, BoardError> {
    let (kind, kind_line) = req_str(table, "peripheral", "kind")?;
    let (base, _) = req_int_in(table, "peripheral", "base", 0, 0xffff)?;
    let base = base as u16;
    let streams = config.streams;
    let common: &[&str] = &["kind", "base", "irq_stream", "irq_bit"];
    let kind = match kind.as_str() {
        "ext-ram" => {
            check_keys(table, "peripheral", &["kind", "base", "words", "latency"])?;
            let (words, _) = req_int_in(table, "peripheral", "words", 1, 0x10000)?;
            PeripheralKind::ExtRam {
                words: words as usize,
                latency: req_latency(table, "peripheral", "latency")?,
            }
        }
        "timer" => {
            check_keys(
                table,
                "peripheral",
                &[common, &["period", "one_shot"]].concat(),
            )?;
            PeripheralKind::Timer {
                period: req_latency(table, "peripheral", "period")?,
                irq: parse_irq(table, streams, true)?.expect("required irq"),
                one_shot: get_bool(table, "peripheral", "one_shot")?.unwrap_or(false),
            }
        }
        "watchdog" => {
            check_keys(table, "peripheral", &[common, &["timeout"]].concat())?;
            PeripheralKind::Watchdog {
                timeout: req_latency(table, "peripheral", "timeout")?,
                irq: parse_irq(table, streams, true)?.expect("required irq"),
            }
        }
        "uart" => {
            check_keys(
                table,
                "peripheral",
                &[common, &["word_cycles", "capacity"]].concat(),
            )?;
            PeripheralKind::Uart {
                word_cycles: req_latency(table, "peripheral", "word_cycles")?,
                capacity: get_int_in(table, "peripheral", "capacity", 1, 0x10000)?
                    .map(|(v, _)| v as usize),
                irq: parse_irq(table, streams, false)?,
            }
        }
        "sensor" => {
            check_keys(
                table,
                "peripheral",
                &[common, &["period", "latency", "amp"]].concat(),
            )?;
            PeripheralKind::Sensor {
                period: req_latency(table, "peripheral", "period")?,
                latency: req_latency(table, "peripheral", "latency")?,
                amp: req_int_in(table, "peripheral", "amp", 0, 0xffff)?.0 as u16,
                irq: parse_irq(table, streams, false)?,
            }
        }
        "actuator" => {
            check_keys(table, "peripheral", &["kind", "base", "latency"])?;
            PeripheralKind::Actuator {
                latency: req_latency(table, "peripheral", "latency")?,
            }
        }
        "dma" => {
            check_keys(
                table,
                "peripheral",
                &[common, &["word_latency", "stall"]].concat(),
            )?;
            PeripheralKind::Dma {
                word_latency: req_latency(table, "peripheral", "word_latency")?,
                stall: get_int_in(table, "peripheral", "stall", 0, i64::from(MAX_LATENCY))?
                    .map(|(v, _)| v as u32),
                irq: parse_irq(table, streams, false)?,
            }
        }
        "storage" => {
            check_keys(
                table,
                "peripheral",
                &[
                    common,
                    &["blocks", "block_words", "read_latency", "write_latency"],
                ]
                .concat(),
            )?;
            PeripheralKind::Storage {
                blocks: req_int_in(table, "peripheral", "blocks", 1, 0xffff)?.0 as u16,
                block_words: req_int_in(table, "peripheral", "block_words", 1, 0x1000)?.0 as u16,
                read_latency: req_latency(table, "peripheral", "read_latency")?,
                write_latency: req_latency(table, "peripheral", "write_latency")?,
                irq: parse_irq(table, streams, false)?,
            }
        }
        "packet" => {
            check_keys(
                table,
                "peripheral",
                &[common, &["seed", "interval", "mean", "capacity"]].concat(),
            )?;
            let (mean, mean_line) = get_f64(table, "peripheral", "mean")?
                .ok_or_else(|| err(table.line, "peripheral.mean", "missing required key"))?;
            if !mean.is_finite() || !(0.0..=1024.0).contains(&mean) {
                return Err(err(
                    mean_line,
                    "peripheral.mean",
                    format!("{mean} is out of range 0..=1024"),
                ));
            }
            PeripheralKind::Packet {
                seed: req_int_in(table, "peripheral", "seed", 0, i64::MAX)?.0 as u64,
                interval: req_latency(table, "peripheral", "interval")?,
                mean,
                capacity: get_int_in(table, "peripheral", "capacity", 1, 0x10000)?
                    .map(|(v, _)| v as usize),
                irq: parse_irq(table, streams, false)?,
            }
        }
        other => {
            return Err(err(
                kind_line,
                "peripheral.kind",
                format!("unknown peripheral kind {other:?} (known: {PERIPHERAL_KINDS})"),
            ));
        }
    };
    Ok(PeripheralSpec {
        base,
        kind,
        line: table.line,
    })
}

/// Replicates [`PeripheralBus::map`]'s rejection rules (zero length,
/// address-space wrap, overlap) with board-file line context, so
/// [`Board::build_bus`] can never panic.
fn check_mappings(peripherals: &[PeripheralSpec]) -> Result<(), BoardError> {
    let mut claimed: Vec<(u32, u32, usize)> = Vec::new();
    for spec in peripherals {
        let base = u32::from(spec.base);
        let len = spec.map_len();
        if len == 0 {
            return Err(err(spec.line, "peripheral.base", "mapping has zero length"));
        }
        if base + len > 0x1_0000 {
            return Err(err(
                spec.line,
                "peripheral.base",
                format!("mapping {base:#06x}+{len:#x} exceeds the address space"),
            ));
        }
        for &(b, l, _) in &claimed {
            if base < b + l && b < base + len {
                return Err(err(
                    spec.line,
                    "peripheral.base",
                    format!("mapping {base:#06x}+{len:#x} overlaps {b:#06x}+{l:#x}"),
                ));
            }
        }
        claimed.push((base, len, spec.line));
    }
    Ok(())
}

fn parse_addr_range(table: &Table) -> Result<AddrRange, BoardError> {
    let addr = get_int_in(table, "fault", "addr", 0, 0xffff)?;
    let start = get_int_in(table, "fault", "start", 0, 0xffff)?;
    let end = get_int_in(table, "fault", "end", 0, 0xffff)?;
    match (addr, start, end) {
        (Some((addr, line)), s, e) => {
            if s.is_some() || e.is_some() {
                return Err(err(
                    line,
                    "fault.addr",
                    "give either addr or start/end, not both",
                ));
            }
            Ok(AddrRange::at(addr as u16))
        }
        (None, Some((s, line)), Some((e, _))) => {
            if s > e {
                return Err(err(
                    line,
                    "fault.start",
                    format!("range start {s:#06x} is beyond its end {e:#06x}"),
                ));
            }
            Ok(AddrRange::new(s as u16, e as u16))
        }
        (None, Some((_, line)), None) => Err(err(
            line,
            "fault.start",
            "start and end must be given together",
        )),
        (None, None, Some((_, line))) => Err(err(
            line,
            "fault.end",
            "start and end must be given together",
        )),
        (None, None, None) => Ok(AddrRange::all()),
    }
}

fn parse_window(table: &Table) -> Result<FaultWindow, BoardError> {
    let from = get_int_in(table, "fault", "from", 0, i64::MAX)?;
    let until = get_int_in(table, "fault", "until", 0, i64::MAX)?;
    match (from, until) {
        (None, None) => Ok(FaultWindow::always()),
        (Some((f, _)), None) => Ok(FaultWindow::from(f as u64)),
        (from, Some((u, line))) => {
            let f = from.map(|(f, _)| f).unwrap_or(0);
            if f > u {
                return Err(err(
                    line,
                    "fault.until",
                    format!("window ends at cycle {u} before it starts at {f}"),
                ));
            }
            Ok(FaultWindow::between(f as u64, u as u64))
        }
    }
}

fn parse_fault_irq(table: &Table, streams: usize) -> Result<(usize, u8), BoardError> {
    let (stream, line) = req_int_in(table, "fault", "stream", 0, 7)?;
    if stream as usize >= streams {
        return Err(err(
            line,
            "fault.stream",
            format!("names stream {stream} but the machine has {streams} streams"),
        ));
    }
    let (bit, _) = req_int_in(table, "fault", "bit", 0, 7)?;
    Ok((stream as usize, bit as u8))
}

const FAULT_KINDS: &str = "latency-add, stuck, bit-flip, blackout, drop-irq, spurious-irq";

fn parse_faults(doc: &toml::Doc, config: &MachineConfig) -> Result<Option<FaultPlan>, BoardError> {
    let entries = doc.array_tables("fault");
    let seed = match doc.table("faults") {
        Some(table) => {
            check_keys(table, "faults", &["seed"])?;
            req_int_in(table, "faults", "seed", 0, i64::MAX)?.0 as u64
        }
        None if entries.is_empty() => return Ok(None),
        None => 0,
    };
    let mut plan = FaultPlan::new(seed);
    let range_keys: &[&str] = &["kind", "addr", "start", "end", "from", "until"];
    for table in &entries {
        let (kind, kind_line) = req_str(table, "fault", "kind")?;
        let window = parse_window(table)?;
        plan = match kind.as_str() {
            "latency-add" => {
                check_keys(table, "fault", &[range_keys, &["cycles"]].concat())?;
                let cycles = req_latency(table, "fault", "cycles")?;
                plan.latency_add(parse_addr_range(table)?, cycles, window)
            }
            "stuck" => {
                check_keys(table, "fault", range_keys)?;
                plan.stuck(parse_addr_range(table)?, window)
            }
            "bit-flip" => {
                check_keys(table, "fault", &[range_keys, &["mask", "prob"]].concat())?;
                let mask = req_int_in(table, "fault", "mask", 0, 0xffff)?.0 as u16;
                let (prob, prob_line) = get_f64(table, "fault", "prob")?
                    .ok_or_else(|| err(table.line, "fault.prob", "missing required key"))?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(err(
                        prob_line,
                        "fault.prob",
                        format!("{prob} is out of range 0..=1"),
                    ));
                }
                plan.bit_flip(parse_addr_range(table)?, mask, prob, window)
            }
            "blackout" => {
                check_keys(table, "fault", range_keys)?;
                plan.blackout(parse_addr_range(table)?, window)
            }
            "drop-irq" => {
                check_keys(
                    table,
                    "fault",
                    &["kind", "from", "until", "stream", "bit", "prob"],
                )?;
                let (stream, bit) = parse_fault_irq(table, config.streams)?;
                let (prob, prob_line) = get_f64(table, "fault", "prob")?
                    .ok_or_else(|| err(table.line, "fault.prob", "missing required key"))?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(err(
                        prob_line,
                        "fault.prob",
                        format!("{prob} is out of range 0..=1"),
                    ));
                }
                plan.drop_irq(stream, bit, prob, window)
            }
            "spurious-irq" => {
                check_keys(
                    table,
                    "fault",
                    &["kind", "from", "until", "stream", "bit", "interval"],
                )?;
                let (stream, bit) = parse_fault_irq(table, config.streams)?;
                let interval = req_latency(table, "fault", "interval")?;
                plan.spurious_irq(stream, bit, u64::from(interval), window)
            }
            other => {
                return Err(err(
                    kind_line,
                    "fault.kind",
                    format!("unknown fault kind {other:?} (known: {FAULT_KINDS})"),
                ));
            }
        };
    }
    Ok(Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `dispatch` is inert: under either step mode, `Legacy` bursts
    /// exactly as `Superblock` does and ends in the same state.
    #[test]
    fn dispatch_mode_is_inert() {
        let board = Board::parse(include_str!("../../../boards/compute_bound_4s.board")).unwrap();
        for step in [StepMode::CycleByCycle, StepMode::EventSkip] {
            let run = |dispatch| {
                let mut m = board.machine_with_modes(step, dispatch).unwrap();
                m.run(20_000).unwrap();
                (m.snapshot(), *m.superblock_stats())
            };
            let legacy = run(DispatchMode::Legacy);
            assert!(legacy.1.bursts > 0 && legacy == run(DispatchMode::Superblock));
        }
    }
}
