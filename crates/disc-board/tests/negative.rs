//! Golden error messages for malformed board documents.
//!
//! These pin the exact line/field context the parser reports, so a host
//! (the session server, the soak driver, CI) can surface actionable
//! diagnostics and so refactors cannot silently degrade them.

use disc_board::Board;

fn parse_err(text: &str) -> String {
    Board::parse(text)
        .expect_err("board must be rejected")
        .to_string()
}

#[test]
fn unknown_peripheral_kind_is_golden() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"frobnicator\"\n\
         base = 0x9000\n",
    );
    assert_eq!(
        msg,
        "line 2: peripheral.kind: unknown peripheral kind \"frobnicator\" \
         (known: ext-ram, timer, watchdog, uart, sensor, actuator, dma, storage, packet)"
    );
}

#[test]
fn overlapping_regions_are_golden() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"ext-ram\"\n\
         base = 0x8000\n\
         words = 0x100\n\
         latency = 2\n\
         \n\
         [[peripheral]]\n\
         kind = \"timer\"\n\
         base = 0x80fe\n\
         period = 100\n\
         irq_stream = 0\n\
         irq_bit = 5\n",
    );
    assert_eq!(
        msg,
        "line 7: peripheral.base: mapping 0x80fe+0x4 overlaps 0x8000+0x100"
    );
}

#[test]
fn mapping_past_address_space_is_golden() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"ext-ram\"\n\
         base = 0xfffe\n\
         words = 16\n\
         latency = 1\n",
    );
    assert_eq!(
        msg,
        "line 1: peripheral.base: mapping 0xfffe+0x10 exceeds the address space"
    );
}

#[test]
fn schedule_slot_naming_dead_stream_is_golden() {
    let msg = parse_err(
        "[machine]\n\
         streams = 2\n\
         schedule = [0, 1, 0, 3]\n",
    );
    assert_eq!(
        msg,
        "line 3: machine.schedule: slot 3 names stream 3 but the machine has 2 streams"
    );
}

#[test]
fn irq_targeting_dead_stream_is_golden() {
    let msg = parse_err(
        "[machine]\n\
         streams = 2\n\
         \n\
         [[peripheral]]\n\
         kind = \"timer\"\n\
         base = 0x9000\n\
         period = 50\n\
         irq_stream = 6\n\
         irq_bit = 5\n",
    );
    assert_eq!(
        msg,
        "line 8: peripheral.irq_stream: names stream 6 but the machine has 2 streams"
    );
}

#[test]
fn out_of_range_latency_is_golden() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"sensor\"\n\
         base = 0x9000\n\
         period = 40\n\
         latency = 2000000\n\
         amp = 256\n",
    );
    assert_eq!(
        msg,
        "line 5: peripheral.latency: 2000000 is out of range 1..=1000000"
    );
}

#[test]
fn zero_period_is_rejected() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"timer\"\n\
         base = 0x9000\n\
         period = 0\n\
         irq_stream = 0\n\
         irq_bit = 5\n",
    );
    assert_eq!(
        msg,
        "line 4: peripheral.period: 0 is out of range 1..=1000000"
    );
}

#[test]
fn unknown_key_lists_known_keys() {
    let msg = parse_err("[machine]\nstreems = 4\n");
    assert!(
        msg.starts_with("line 2: machine.streems: unknown key (known keys: streams,"),
        "{msg}"
    );
}

#[test]
fn half_an_irq_pair_is_rejected() {
    let msg = parse_err(
        "[[peripheral]]\n\
         kind = \"uart\"\n\
         base = 0x9000\n\
         word_cycles = 8\n\
         irq_bit = 3\n",
    );
    assert_eq!(
        msg,
        "line 5: peripheral.irq_bit: irq_stream and irq_bit must be given together"
    );
}

#[test]
fn weights_must_match_stream_count() {
    let msg = parse_err("[machine]\nstreams = 3\nweights = [4, 4]\n");
    assert_eq!(
        msg,
        "line 3: machine.weights: 2 weights given but the machine has 3 streams"
    );
}

#[test]
fn unknown_fault_kind_is_golden() {
    let msg = parse_err("[[fault]]\nkind = \"gremlin\"\n");
    assert_eq!(
        msg,
        "line 2: fault.kind: unknown fault kind \"gremlin\" \
         (known: latency-add, stuck, bit-flip, blackout, drop-irq, spurious-irq)"
    );
}

#[test]
fn fault_probability_out_of_range_is_golden() {
    let msg = parse_err(
        "[[fault]]\n\
         kind = \"bit-flip\"\n\
         mask = 0x1\n\
         prob = 1.5\n",
    );
    assert_eq!(msg, "line 4: fault.prob: 1.5 is out of range 0..=1");
}

#[test]
fn syntax_errors_carry_line_context() {
    let msg = parse_err("[machine]\nstreams 4\n");
    assert_eq!(
        msg,
        "line 2: board: expected `key = value`, got \"streams 4\""
    );
}

#[test]
fn machine_without_program_reports_missing_section() {
    let board = Board::parse("[machine]\nstreams = 1\n").unwrap();
    let msg = board.machine().expect_err("no program").to_string();
    assert_eq!(
        msg,
        "program: board has no [program] section but a program is required here"
    );
}

#[test]
fn assembly_errors_surface_through_board_error() {
    let board = Board::parse(
        "[program]\n\
         source = \"\"\"\n\
         .stream 0, a\n\
         a:  bogus r0\n\
         \"\"\"\n",
    )
    .unwrap();
    let msg = board.machine().expect_err("bad asm").to_string();
    assert!(
        msg.starts_with("line 1: program.source: assembly failed:"),
        "{msg}"
    );
}

#[test]
fn parse_never_panics_on_malformed_documents() {
    // A grab-bag of documents that must all nack politely.
    for doc in [
        "",
        "[",
        "[[peripheral]]",
        "[[peripheral]]\nkind = \"dma\"\nbase = 0x10000\n",
        "[[peripheral]]\nkind = \"packet\"\nbase = 0x9000\nseed = -1\ninterval = 4\nmean = 1.0\n",
        "[machine]\nstreams = 99\n",
        "[machine]\nweights = [0, 0, 0, 0]\n",
        "[faults]\n",
        "[[fault]]\nkind = \"stuck\"\nstart = 9\nend = 2\n",
        "name = 7\n",
        "x = \"unclosed\nstring",
    ] {
        let _ = Board::parse(doc);
    }
}
