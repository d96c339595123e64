//! Host harness: drives a machine cycle by cycle, injects task
//! activations, observes completions and scores deadlines.

use std::collections::VecDeque;

use disc_baseline::{BaselineConfig, BaselineMachine};
use disc_core::{Machine, MachineConfig, MachineStats, SchedulePolicy, SimError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codegen;
use crate::task::TaskSet;

/// Per-task result of a harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Task name.
    pub name: String,
    /// Activations injected.
    pub activations: u64,
    /// Handler completions observed.
    pub completions: u64,
    /// Deadline misses (late completions plus activations whose deadline
    /// passed unserved — including coalesced interrupts).
    pub misses: u64,
    /// Worst observed response time in cycles.
    pub max_response: u64,
    /// Mean observed response time in cycles.
    pub mean_response: f64,
    /// All observed response times.
    pub responses: Vec<u64>,
}

impl TaskOutcome {
    /// Nearest-rank percentile of the observed response times.
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    pub fn response_percentile(&self, p: u8) -> Option<u64> {
        crate::latency::LatencyReport::percentile(&self.responses, p)
    }
}

/// Result of running a task set on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per-task results, in task order.
    pub tasks: Vec<TaskOutcome>,
    /// Cycles simulated.
    pub cycles: u64,
    /// Machine utilization over the run.
    pub utilization: f64,
    /// Worst hardware-measured interrupt latency (raise → handler fetch,
    /// including any context-switch cost).
    pub max_irq_latency: Option<u64>,
    /// Background instructions retired (progress of the non-RT work).
    pub background_retired: u64,
    /// Full machine statistics, including the bus-fault counters
    /// (`bus_faults`, `abi_timeouts`, `unmapped_accesses`) a fault
    /// campaign asserts on.
    pub stats: MachineStats,
}

impl SimOutcome {
    /// Total deadline misses across tasks.
    pub fn total_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.misses).sum()
    }
}

/// Anything the deadline driver can run a task set on.
trait Target {
    fn step_once(&mut self) -> Result<(), SimError>;
    fn activate(&mut self, task: usize);
    fn completions(&self, task: usize) -> u16;
    fn stats(&self) -> &MachineStats;
}

struct DiscTarget(Machine);

impl Target for DiscTarget {
    fn step_once(&mut self) -> Result<(), SimError> {
        self.0.step().map(|_| ())
    }
    fn activate(&mut self, task: usize) {
        self.0.raise_interrupt(task + 1, codegen::DISC_TASK_BIT);
    }
    fn completions(&self, task: usize) -> u16 {
        self.0
            .internal_memory()
            .read(codegen::completion_addr(task))
    }
    fn stats(&self) -> &MachineStats {
        self.0.stats()
    }
}

struct BaselineTarget(BaselineMachine);

impl Target for BaselineTarget {
    fn step_once(&mut self) -> Result<(), SimError> {
        self.0.step().map(|_| ())
    }
    fn activate(&mut self, task: usize) {
        self.0.raise_interrupt(codegen::baseline_task_bit(task));
    }
    fn completions(&self, task: usize) -> u16 {
        self.0
            .internal_memory()
            .read(codegen::completion_addr(task))
    }
    fn stats(&self) -> &MachineStats {
        self.0.stats()
    }
}

/// Builds each task's activation schedule up front: strictly periodic, or
/// a Poisson process with the same mean rate for sporadic tasks
/// (deterministic per task index, so DISC and baseline runs see identical
/// stimulus).
fn arrival_schedule(set: &TaskSet, horizon: u64) -> Vec<Vec<u64>> {
    set.tasks
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let mut arrivals = Vec::new();
            if task.sporadic {
                let mut rng = SmallRng::seed_from_u64(0xd15c_0000 + i as u64);
                let mut t = task.offset;
                loop {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let gap = (-u.ln() * task.period as f64).ceil() as u64;
                    t += gap.max(1);
                    if t >= horizon {
                        break;
                    }
                    arrivals.push(t);
                }
            } else {
                let mut t = task.offset;
                while t < horizon {
                    arrivals.push(t);
                    t += task.period;
                }
            }
            arrivals
        })
        .collect()
}

fn drive<T: Target>(mut target: T, set: &TaskSet, horizon: u64) -> Result<SimOutcome, SimError> {
    let n = set.tasks.len();
    let schedule = arrival_schedule(set, horizon);
    let mut next_arrival = vec![0usize; n];
    let mut outstanding: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
    let mut seen: Vec<u64> = vec![0; n];
    let mut outcomes: Vec<TaskOutcome> = set
        .tasks
        .iter()
        .map(|t| TaskOutcome {
            name: t.name.clone(),
            activations: 0,
            completions: 0,
            misses: 0,
            max_response: 0,
            mean_response: 0.0,
            responses: Vec::new(),
        })
        .collect();
    for cycle in 0..horizon {
        for i in 0..n {
            // An activation whose deadline expired without service was
            // lost (coalesced on the single IR bit, or overrun). Count
            // the miss and drop the job, so later completions are matched
            // against the arrival they actually serviced instead of
            // cascading inflated responses down the whole queue.
            while let Some(&t0) = outstanding[i].front() {
                if cycle > t0 + set.tasks[i].deadline {
                    outstanding[i].pop_front();
                    outcomes[i].misses += 1;
                } else {
                    break;
                }
            }
            while next_arrival[i] < schedule[i].len() && schedule[i][next_arrival[i]] == cycle {
                target.activate(i);
                outstanding[i].push_back(cycle);
                outcomes[i].activations += 1;
                next_arrival[i] += 1;
            }
        }
        target.step_once()?;
        for i in 0..n {
            let count = target.completions(i) as u64;
            while seen[i] < count {
                seen[i] += 1;
                outcomes[i].completions += 1;
                if let Some(t0) = outstanding[i].pop_front() {
                    let response = cycle + 1 - t0;
                    if response > set.tasks[i].deadline {
                        outcomes[i].misses += 1;
                    }
                    outcomes[i].responses.push(response);
                }
            }
        }
    }
    // Activations whose deadline expired without service are misses
    // (coalesced interrupts and overruns land here).
    for i in 0..n {
        for &t0 in &outstanding[i] {
            if horizon > t0 + set.tasks[i].deadline {
                outcomes[i].misses += 1;
            }
        }
    }
    for o in &mut outcomes {
        o.max_response = o.responses.iter().copied().max().unwrap_or(0);
        o.mean_response = if o.responses.is_empty() {
            0.0
        } else {
            o.responses.iter().sum::<u64>() as f64 / o.responses.len() as f64
        };
    }
    let stats = target.stats();
    Ok(SimOutcome {
        cycles: stats.cycles,
        utilization: stats.utilization(),
        max_irq_latency: stats.max_irq_latency(),
        background_retired: stats.retired[0],
        stats: stats.clone(),
        tasks: outcomes,
    })
}

/// Runs the task set on a DISC1 machine (dedicated stream per task, even
/// round-robin schedule).
///
/// # Errors
///
/// Propagates [`SimError`] from the machine.
pub fn run_on_disc(set: &TaskSet, horizon: u64) -> Result<SimOutcome, SimError> {
    run_on_disc_with_schedule(set, horizon, None)
}

/// Like [`run_on_disc`] but with an explicit scheduler partition (e.g.
/// from [`partition::schedule_for`](crate::partition::schedule_for)).
///
/// # Errors
///
/// Propagates [`SimError`] from the machine.
pub fn run_on_disc_with_schedule(
    set: &TaskSet,
    horizon: u64,
    schedule: Option<SchedulePolicy>,
) -> Result<SimOutcome, SimError> {
    run_on_disc_with_bus(
        set,
        horizon,
        schedule,
        MachineConfig::disc1(),
        Box::new(codegen::device_bus(set)),
    )
}

/// Like [`run_on_disc_with_schedule`] but with an explicit base machine
/// configuration (e.g. a [`BusFaultPolicy`](disc_core::BusFaultPolicy)
/// and ABI timeout) and an arbitrary external bus — typically a
/// `disc_faults::FaultInjector` wrapping [`codegen::device_bus`]. The
/// stream count is derived from the task set regardless of `cfg`.
///
/// # Errors
///
/// Propagates [`SimError`] from the machine.
pub fn run_on_disc_with_bus(
    set: &TaskSet,
    horizon: u64,
    schedule: Option<SchedulePolicy>,
    cfg: MachineConfig,
    bus: Box<dyn disc_core::DataBus>,
) -> Result<SimOutcome, SimError> {
    let program = codegen::disc_program(set);
    let streams = set.tasks.len() + 1;
    let mut cfg = cfg.with_streams(streams);
    if let Some(s) = schedule {
        cfg = cfg.with_schedule(s);
    }
    let mut machine = Machine::with_bus(cfg, &program, bus);
    machine.set_idle_exit(false);
    drive(DiscTarget(machine), set, horizon)
}

/// Runs the task set on the conventional baseline machine (all handlers
/// share the single context; interrupts pay the context-switch cost).
///
/// # Errors
///
/// Propagates [`SimError`] from the machine.
pub fn run_on_baseline(set: &TaskSet, horizon: u64) -> Result<SimOutcome, SimError> {
    let program = codegen::baseline_program(set);
    let bus = codegen::device_bus(set);
    let machine = BaselineMachine::with_bus(BaselineConfig::default(), &program, Box::new(bus));
    drive(BaselineTarget(machine), set, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;

    #[test]
    fn single_light_task_meets_every_deadline_on_disc() {
        let set = TaskSet::new(vec![Task::new("t", 500, 250).with_body(30)]);
        let out = run_on_disc(&set, 20_000).unwrap();
        let t = &out.tasks[0];
        assert!(t.activations >= 39);
        assert_eq!(
            t.misses,
            0,
            "responses: {:?}",
            &t.responses[..4.min(t.responses.len())]
        );
        assert!(t.completions >= t.activations - 1);
        assert!(t.max_response <= 250);
        assert!(out.background_retired > 5_000, "background kept running");
    }

    #[test]
    fn disc_outcome_attribution_balances_under_rt_workload() {
        // The interrupt-driven RT harness exercises vectors, external
        // I/O and scheduler reallocation together; the per-stream cycle
        // attribution must still account for every elapsed cycle.
        let set = TaskSet::new(vec![
            Task::new("fast", 400, 300).with_body(20).with_io(1, 8),
            Task::new("slow", 900, 800).with_body(60),
        ]);
        let out = run_on_disc(&set, 20_000).unwrap();
        if let Err(violations) = out.stats.attribution.check(out.stats.cycles) {
            panic!("attribution imbalance: {}", violations.join("; "));
        }
        // The harness keeps every stream busy enough that some cycles
        // must land outside plain issue for at least one stream.
        let issued: u64 = out.stats.attribution.issue.iter().sum();
        assert!(issued > 0 && issued < out.stats.cycles * out.stats.attribution.streams() as u64);
    }

    #[test]
    fn baseline_pays_context_switch_latency() {
        let set = TaskSet::new(vec![Task::new("t", 800, 700).with_body(10)]);
        let disc = run_on_disc(&set, 20_000).unwrap();
        let base = run_on_baseline(&set, 20_000).unwrap();
        assert!(base.tasks[0].completions > 10);
        // The hardware-measured delivery latency exposes the context-save
        // cost directly; end-to-end response times are closer because the
        // DISC handler shares slots with the background stream while the
        // baseline handler preempts it outright.
        let disc_lat = disc.max_irq_latency.unwrap();
        let base_lat = base.max_irq_latency.unwrap();
        assert!(disc_lat <= 8, "DISC latency {disc_lat}");
        assert!(
            base_lat >= 16,
            "baseline latency must include the context save, got {base_lat}"
        );
        assert!(
            base.tasks[0].mean_response > disc.tasks[0].mean_response,
            "baseline {} vs disc {}",
            base.tasks[0].mean_response,
            disc.tasks[0].mean_response
        );
    }

    #[test]
    fn overload_misses_deadlines() {
        // WCET ≈ period: the task cannot keep up with a tight deadline.
        let set = TaskSet::new(vec![Task::new("hog", 300, 120).with_body(200)]);
        let out = run_on_disc(&set, 30_000).unwrap();
        assert!(out.tasks[0].misses > 0, "overload must miss");
    }

    #[test]
    fn three_tasks_with_io_run_concurrently_on_disc() {
        let set = TaskSet::new(vec![
            Task::new("fast", 600, 400).with_body(20).with_io(1, 15),
            Task::new("mid", 1000, 800).with_body(60),
            Task::new("slow", 2200, 2000).with_body(100).with_io(2, 40),
        ]);
        let out = run_on_disc(&set, 60_000).unwrap();
        for t in &out.tasks {
            assert!(t.completions > 10, "{} completed {}", t.name, t.completions);
            assert_eq!(t.misses, 0, "{} missed (max {})", t.name, t.max_response);
        }
    }

    #[test]
    fn response_percentiles_are_ordered() {
        let set = TaskSet::new(vec![Task::new("t", 600, 550).with_body(25)]);
        let out = run_on_disc(&set, 30_000).unwrap();
        let t = &out.tasks[0];
        let p50 = t.response_percentile(50).unwrap();
        let p99 = t.response_percentile(99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 <= t.max_response);
    }

    #[test]
    fn sporadic_arrivals_are_poisson_like_and_reproducible() {
        // Long mean gap + tiny handler keep interrupt coalescing (a real
        // property of one IR bit per source) rare.
        let set = TaskSet::new(vec![Task::new("s", 2000, 1800).with_body(5).sporadic()]);
        let a = run_on_disc(&set, 120_000).unwrap();
        let b = run_on_disc(&set, 120_000).unwrap();
        assert_eq!(
            a.tasks[0].activations, b.tasks[0].activations,
            "deterministic stimulus"
        );
        // ~60 expected arrivals; Poisson spread allows a generous band.
        let acts = a.tasks[0].activations;
        assert!((35..=90).contains(&acts), "got {acts} arrivals");
        // Bursty back-to-back arrivals coalesce on the single IR bit; with
        // these parameters that stays a small fraction.
        assert!(
            a.tasks[0].misses <= acts / 5,
            "misses {} of {acts}",
            a.tasks[0].misses
        );
        assert!(a.tasks[0].completions >= acts - a.tasks[0].misses);
    }

    #[test]
    fn sporadic_bursts_hurt_baseline_more() {
        // A sporadic high-rate task plus a periodic one: the baseline
        // serializes handlers behind context switches.
        let set = TaskSet::new(vec![
            Task::new("burst", 700, 650).with_body(40).sporadic(),
            Task::new("steady", 1100, 1000).with_body(60),
        ]);
        let disc = run_on_disc(&set, 80_000).unwrap();
        let base = run_on_baseline(&set, 80_000).unwrap();
        // The steady task rides shotgun: on DISC it keeps its own stream,
        // on the baseline it queues behind burst handlers and context
        // switches, so its deadline record and worst response degrade.
        let (disc_steady, base_steady) = (&disc.tasks[1], &base.tasks[1]);
        assert!(disc_steady.misses <= base_steady.misses);
        assert!(disc_steady.max_response <= base_steady.max_response);
        assert!(disc.background_retired > base.background_retired);
    }

    #[test]
    fn partitioned_schedule_still_meets_deadlines() {
        let set = TaskSet::new(vec![
            Task::new("a", 700, 500).with_body(40),
            Task::new("b", 1300, 1000).with_body(80),
        ]);
        let schedule = crate::partition::schedule_for(&set);
        let out = run_on_disc_with_schedule(&set, 40_000, Some(schedule)).unwrap();
        assert_eq!(out.total_misses(), 0);
    }
}
