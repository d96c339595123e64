//! Decode faults under the predecoded instruction store.
//!
//! The machine decodes the whole program once at load time and fetches
//! from the predecoded store. Predecoding must keep the lazy fault
//! semantics of per-fetch decoding: an undecodable word faults only when
//! a stream actually fetches it. (That the store holds exactly the decode
//! of every program word is a unit test in `machine.rs`.)

use disc_core::{Exit, Machine, MachineConfig, SimError};
use disc_isa::Program;

/// Predecoding must not make load-time errors out of decode faults: an
/// undecodable word only faults when a stream actually fetches it, and
/// the error carries the stream, pc and raw word.
#[test]
fn decode_fault_stays_lazy_and_reports_word() {
    let mut program = Program::assemble(
        ".stream 0, m\n.stream 1, n\nm: nop\n    nop\n    jmp m\nn: nop\n    nop\n    jmp n\n",
    )
    .unwrap();
    // Patch stream 1's second word (n is after m's 3 instructions).
    let bad_addr = 4u16;
    let bad_word = 63 << 18; // unassigned opcode
    program.set_word(bad_addr, bad_word);
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    let err = m.run(1_000).unwrap_err();
    match err {
        SimError::Decode { stream, pc, word } => {
            assert_eq!(stream, 1);
            assert_eq!(pc, bad_addr);
            assert_eq!(word, bad_word);
        }
        other => panic!("unexpected error {other}"),
    }
}

/// A bad word that no stream ever reaches must not fault at all — the
/// predecoded store keeps the seed's lazy semantics.
#[test]
fn unreached_bad_word_never_faults() {
    let mut program =
        Program::assemble(".stream 0, m\nm: ldi r0, 7\n    sta r0, 0x40\n    halt\n").unwrap();
    program.set_word(200, 63 << 18);
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    assert_eq!(m.run(1_000).expect("no fault"), Exit::Halted);
    assert_eq!(m.internal_memory().read(0x40), 7);
}
