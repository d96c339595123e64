//! Integration: DISC1 machine driving real peripherals through the
//! asynchronous bus — timers raising stream interrupts, sensor polling,
//! actuator output, UART traffic.

use disc_bus::{Actuator, DmaEngine, ExtRam, PeripheralBus, SensorPort, Shared, Timer, Uart};
use disc_core::{DispatchMode, Exit, Machine, MachineConfig, StepMode};
use disc_isa::Program;

#[test]
fn timer_interrupt_drives_handler_stream() {
    // Stream 1 is a dormant interrupt server woken every 50 cycles by a
    // hardware timer; it increments a counter in internal memory.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, server
        .vector 1, 4, tick
    main:
        jmp main
    server:
        stop
    tick:
        lda r0, 0x10
        addi r0, r0, 1
        sta r0, 0x10
        reti
    "#,
    )
    .unwrap();
    let timer = Shared::new(Timer::periodic(50, 1, 4));
    let mut bus = PeripheralBus::new();
    bus.map(0x9000, Timer::REGS, Box::new(timer.handle()))
        .unwrap();
    let mut m = Machine::with_bus(
        MachineConfig::disc1().with_streams(2),
        &program,
        Box::new(bus),
    );
    m.set_idle_exit(false);
    // Deactivate the server until the timer wakes it.
    m.set_reg(1, disc_isa::Reg::Ir, 0);
    m.run(1_000).unwrap();
    assert_eq!(timer.borrow().fires(), 1_000 / 50);
    let count = m.internal_memory().read(0x10);
    assert!(
        (18..=20).contains(&count),
        "handler should have run ~20 times, got {count}"
    );
    // Latencies must be small: the handler stream was dedicated.
    assert!(m.stats().max_irq_latency().unwrap() <= 8);
}

#[test]
fn sensor_poll_reads_current_sample() {
    // Poll a slow sensor (40-cycle conversion) and copy samples to
    // internal memory; the main loop keeps running meanwhile.
    let program = Program::assemble(
        r#"
        .equ SENSOR, 0x9100
        .stream 0, poll
        .stream 1, work
    poll:
        lui r1, 0x91        ; r1 = 0x9100
    again:
        ld  r0, [r1]        ; slow conversion
        sta r0, 0x20
        jmp again
    work:
        ldi r0, 0
    w:  addi r0, r0, 1
        jmp w
    "#,
    )
    .unwrap();
    let sensor = Shared::new(SensorPort::new(25, 40, |seq| 100 + seq));
    let mut bus = PeripheralBus::new();
    bus.map(0x9100, SensorPort::REGS, Box::new(sensor.handle()))
        .unwrap();
    let mut m = Machine::with_bus(
        MachineConfig::disc1().with_streams(2),
        &program,
        Box::new(bus),
    );
    assert_eq!(m.run(2_000).unwrap(), Exit::CycleLimit);
    assert!(sensor.borrow().reads() > 10, "poll loop must keep reading");
    let copied = m.internal_memory().read(0x20);
    assert!(copied >= 100, "sample reached internal memory: {copied}");
    // The compute stream retired far more than the I/O-bound poller.
    assert!(m.stats().retired[1] > m.stats().retired[0] * 2);
}

#[test]
fn actuator_receives_commands_in_order() {
    let program = Program::assemble(
        r#"
        .stream 0, main
    main:
        lui r1, 0xa0        ; actuator at 0xa000
        ldi r0, 1
        st  r0, [r1]
        ldi r0, 2
        st  r0, [r1]
        ldi r0, 3
        st  r0, [r1]
        halt
    "#,
    )
    .unwrap();
    let act = Shared::new(Actuator::new(4));
    let mut bus = PeripheralBus::new();
    bus.map(0xa000, 1, Box::new(act.handle())).unwrap();
    let mut m = Machine::with_bus(MachineConfig::disc1(), &program, Box::new(bus));
    assert_eq!(m.run(1_000).unwrap(), Exit::Halted);
    let hist: Vec<u16> = act.borrow().history().iter().map(|c| c.value).collect();
    assert_eq!(hist, vec![1, 2, 3]);
    // Commands are spaced by at least the write latency (one bus at a time).
    let cycles: Vec<u64> = act.borrow().history().iter().map(|c| c.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[1] - w[0] >= 4));
}

#[test]
fn uart_rx_interrupt_echoes_to_tx() {
    // RX words arrive every 60 cycles and interrupt stream 1, which echoes
    // them back out of the same UART.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, idle
        .vector 1, 5, echo
    main:
        jmp main
    idle:
        stop
    echo:
        lui r1, 0xb0        ; uart at 0xb000
        ld  r0, [r1]        ; pop RX
        st  r0, [r1]        ; push TX
        reti
    "#,
    )
    .unwrap();
    let uart = Shared::new(Uart::new(6).with_irq(1, 5));
    uart.borrow_mut().feed(60, vec![0x11, 0x22, 0x33]);
    let mut bus = PeripheralBus::new();
    bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
        .unwrap();
    let mut m = Machine::with_bus(
        MachineConfig::disc1().with_streams(2),
        &program,
        Box::new(bus),
    );
    m.set_reg(1, disc_isa::Reg::Ir, 0);
    m.set_idle_exit(false);
    m.run(600).unwrap();
    assert_eq!(uart.borrow().transmitted(), &[0x11, 0x22, 0x33]);
    assert_eq!(uart.borrow().rx_pending(), 0);
}

#[test]
fn uart_irq_storm_overflows_bounded_rx_without_wedging() {
    // Words arrive every 5 cycles but each echo costs ~60 cycles of bus
    // time: the 4-word RX FIFO must overflow. The point of the bounded
    // FIFO is that the storm costs *data*, never liveness — the machine
    // keeps running and every word is accounted for.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, idle
        .vector 1, 5, echo
    main:
        jmp main
    idle:
        stop
    echo:
        lui r1, 0xb0        ; uart at 0xb000
        ld  r0, [r1]        ; pop RX (30-cycle word time)
        st  r0, [r1]        ; push TX (30 more)
        reti
    "#,
    )
    .unwrap();
    let words: Vec<u16> = (1..=40).collect();
    let uart = Shared::new(Uart::new(30).with_irq(1, 5).with_rx_capacity(4));
    uart.borrow_mut().feed(5, words.clone());
    let mut bus = PeripheralBus::new();
    bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
        .unwrap();
    let mut m = Machine::with_bus(
        MachineConfig::disc1().with_streams(2),
        &program,
        Box::new(bus),
    );
    m.set_reg(1, disc_isa::Reg::Ir, 0);
    m.set_idle_exit(false);
    assert_eq!(m.run(3_000).unwrap(), Exit::CycleLimit);

    let u = uart.borrow();
    assert!(u.rx_overflows() > 0, "the storm must overflow the FIFO");
    assert!(!u.transmitted().is_empty(), "some words still got through");
    assert_eq!(
        u.transmitted().len() as u64 + u.rx_overflows() + u.rx_pending() as u64,
        words.len() as u64,
        "every stormed word is echoed, dropped, or still queued"
    );
    assert!(
        u.transmitted().windows(2).all(|w| w[0] < w[1]),
        "surviving words keep their arrival order: {:?}",
        u.transmitted()
    );
}

#[test]
fn mixed_bus_with_ram_and_devices() {
    // External RAM plus a timer on one decoded bus; a working buffer is
    // copied out to RAM while the timer counts.
    let program = Program::assemble(
        r#"
        .stream 0, main
    main:
        lui r1, 0x80        ; ext ram base
        ldi r0, 5
        ldi r2, 0           ; index
    copy:
        add r3, r1, r2
        st  r2, [r3]        ; ram[i] = i
        addi r2, r2, 1
        cmp r2, r0
        jnz copy
        halt
    "#,
    )
    .unwrap();
    let ram = Shared::new(ExtRam::new(0x100, 2));
    let timer = Shared::new(Timer::periodic(1000, 0, 7));
    let mut bus = PeripheralBus::new();
    bus.map(0x8000, 0x100, Box::new(ram.handle())).unwrap();
    bus.map(0x9000, Timer::REGS, Box::new(timer.handle()))
        .unwrap();
    let mut m = Machine::with_bus(MachineConfig::disc1(), &program, Box::new(bus));
    assert_eq!(m.run(10_000).unwrap(), Exit::Halted);
    for i in 0..5 {
        assert_eq!(ram.borrow().peek(i), i);
    }
    assert_eq!(ram.borrow().writes(), 5);
}

#[test]
fn watchdog_recovery_runs_on_dedicated_stream() {
    use disc_bus::Watchdog;
    // Stream 0 "wedges" after a while (stops kicking); the watchdog bite
    // interrupt wakes the recovery stream, which records the event and
    // restarts the main loop via fork.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, dormant
        .vector 1, 7, recover
    main:
        ldi r4, 0
        lui r4, 0x92        ; watchdog KICK register
        ldi r5, 6           ; kicks before wedging
    loop:
        st  r5, [r4]        ; kick
        ldi r0, 30
    busy:
        subi r0, r0, 1
        jnz busy
        subi r5, r5, 1
        jnz loop
    wedge:
        jmp wedge           ; stops kicking forever
    dormant:
        stop
    recover:
        lda r0, 0x11
        addi r0, r0, 1
        sta r0, 0x11        ; recovery count
        reti
    "#,
    )
    .unwrap();
    let dog = Shared::new(Watchdog::new(400, 1, 7));
    let mut bus = PeripheralBus::new();
    bus.map(0x9200, Watchdog::REGS, Box::new(dog.handle()))
        .unwrap();
    let mut m = Machine::with_bus(
        MachineConfig::disc1().with_streams(2),
        &program,
        Box::new(bus),
    );
    m.set_idle_exit(false);
    m.set_reg(1, disc_isa::Reg::Ir, 0);
    m.run(4_000).unwrap();
    assert!(dog.borrow().kicks() >= 6, "main kicked while healthy");
    assert!(dog.borrow().bites() >= 1, "watchdog must bite after wedge");
    let recoveries = m.internal_memory().read(0x11);
    assert!(
        recoveries >= 1,
        "recovery handler must run on the dedicated stream"
    );
    assert_eq!(
        m.internal_memory().read(0x11),
        dog.borrow().bites() as u16,
        "one recovery per bite"
    );
}

#[test]
fn host_edits_between_runs_land_on_schedule() {
    // The host starts a DMA copy, then an RX feed, through its shared
    // handles between `run` calls. Each completion interrupt vectors the
    // dormant stream 1 into an ISR that writes the actuator, which stamps
    // every command with its bus cycle. The stamps are pinned: the
    // machine must notice a device reprogrammed between calls at once,
    // whatever it had learned about the bus's next event before.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, idle
        .vector 1, 6, dma_done
        .vector 1, 5, rx
    main:
        jmp main
    idle:
        stop
    dma_done:
        lui r1, 0xa0        ; actuator at 0xa000
        ldi r0, 0x0d
        st  r0, [r1]
        reti
    rx:
        lui r1, 0xb0        ; uart at 0xb000
        ld  r0, [r1]        ; pop RX
        lui r2, 0xa0
        st  r0, [r2]        ; forward the word to the actuator
        reti
    "#,
    )
    .unwrap();
    for step_mode in [StepMode::CycleByCycle, StepMode::EventSkip] {
        for dispatch_mode in [DispatchMode::Legacy, DispatchMode::Superblock] {
            let ram = Shared::new(ExtRam::new(0x100, 2));
            let dma = Shared::new(DmaEngine::new(5).with_irq(1, 6));
            let uart = Shared::new(Uart::new(6).with_irq(1, 5));
            let act = Shared::new(Actuator::new(3));
            let mut bus = PeripheralBus::new();
            bus.map(0x8000, 0x100, Box::new(ram.handle())).unwrap();
            bus.map_dma(0x9300, &dma).unwrap();
            bus.map(0xa000, 1, Box::new(act.handle())).unwrap();
            bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
                .unwrap();
            let config = MachineConfig::disc1()
                .with_streams(2)
                .with_step_mode(step_mode)
                .with_dispatch_mode(dispatch_mode);
            let mut m = Machine::with_bus(config, &program, Box::new(bus));
            for i in 0..4 {
                ram.borrow_mut().poke(i, 0x40 + i);
            }
            assert_eq!(m.run(500).unwrap(), Exit::CycleLimit);
            dma.borrow_mut().start(0x8000, 0x8010, 4);
            assert_eq!(m.run(500).unwrap(), Exit::CycleLimit);
            uart.borrow_mut().feed(40, vec![0x11, 0x22]);
            assert_eq!(m.run(500).unwrap(), Exit::CycleLimit);

            let what = format!("{step_mode:?}/{dispatch_mode:?}");
            assert_eq!(dma.borrow().done(), 1, "{what}");
            for i in 0..4 {
                assert_eq!(ram.borrow().peek(0x10 + i), 0x40 + i, "{what}: word {i}");
            }
            let commands: Vec<(u64, u16)> = act
                .borrow()
                .history()
                .iter()
                .map(|c| (c.cycle, c.value))
                .collect();
            assert_eq!(
                commands,
                vec![(531, 0x0d), (1061, 0x11), (1101, 0x22)],
                "{what}: command cycles"
            );
        }
    }
}
