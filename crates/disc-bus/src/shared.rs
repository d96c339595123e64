//! Shared ownership of a peripheral between host code and the bus.

use std::sync::{Arc, Mutex, MutexGuard};

use disc_core::IrqRequest;

use crate::bus::Peripheral;

/// `Arc<Mutex<T>>` wrapper implementing [`Peripheral`] by delegation.
///
/// The machine owns the bus (`Box<dyn DataBus>`), so a test or host program
/// that wants to inspect or stimulate a device after constructing the
/// machine maps a [`Shared::handle`] clone and keeps the original.
///
/// The wrapper is a mutex (not a `RefCell`) so that machines holding a
/// shared device stay [`Send`] and can migrate between `disc-serve`
/// worker threads; within one machine the bus is only ever driven from
/// the thread currently running that machine, so the lock is uncontended
/// in practice.
///
/// # Example
///
/// ```
/// use disc_bus::{Actuator, PeripheralBus, Shared};
///
/// let act = Shared::new(Actuator::new(1));
/// let mut bus = PeripheralBus::new();
/// bus.map(0xa000, 1, Box::new(act.handle()))?;
/// // … move `bus` into a Machine, run, then:
/// assert!(act.borrow().history().is_empty());
/// # Ok::<(), disc_bus::MapError>(())
/// ```
#[derive(Debug)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Wraps `value` for shared access.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(value)))
    }

    /// Another handle to the same device (map this one on the bus).
    pub fn handle(&self) -> Shared<T> {
        Shared(Arc::clone(&self.0))
    }

    /// Locks the device; the guard gives shared and mutable access.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        self.0.lock().expect("shared peripheral poisoned")
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        self.handle()
    }
}

impl<T: Peripheral> Peripheral for Shared<T> {
    fn latency(&self, offset: u16, write: bool) -> u32 {
        self.borrow().latency(offset, write)
    }

    fn read(&mut self, offset: u16) -> u16 {
        self.borrow().read(offset)
    }

    fn write(&mut self, offset: u16, value: u16) {
        self.borrow().write(offset, value)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.borrow().next_event(now)
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        self.borrow().advance(cycles, irqs)
    }

    fn save_state(&self) -> Vec<u8> {
        self.borrow().save_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        self.borrow().restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u16);

    impl Peripheral for Counter {
        fn latency(&self, _o: u16, _w: bool) -> u32 {
            0
        }
        fn read(&mut self, _o: u16) -> u16 {
            self.0
        }
        fn write(&mut self, _o: u16, v: u16) {
            self.0 = v;
        }
    }

    #[test]
    fn handle_sees_device_mutations() {
        let shared = Shared::new(Counter(0));
        let mut mapped: Box<dyn Peripheral> = Box::new(shared.handle());
        mapped.write(0, 7);
        assert_eq!(shared.borrow().0, 7);
        shared.borrow().0 = 9;
        assert_eq!(mapped.read(0), 9);
    }

    #[test]
    fn shared_devices_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let shared = Shared::new(Counter(0));
        assert_send(&shared);
        assert_send(&shared.handle());
    }
}
