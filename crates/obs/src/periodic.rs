//! [`Periodic`]: the workspace's one background-loop primitive.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A named background thread that runs a tick every `period` until dropped.
///
/// Between ticks the thread waits on a `Mutex<bool>` stop flag and its
/// `Condvar` (`wait_timeout_while`), so a spurious wake-up never runs a tick
/// early.  The first tick runs one `period` after [`Periodic::spawn`]: work due
/// at time zero belongs on the calling thread, before the spawn.  Each period is
/// measured from the end of the previous tick, so a slow tick delays the next
/// one rather than bunching them.
///
/// Dropping a `Periodic` sets the flag, wakes the thread and joins it.  The drop
/// returns as soon as a tick in progress finishes, however long the period, and
/// no tick runs after it returns.
pub struct Periodic {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Periodic {
    /// Spawns a thread called `name` that calls `tick` every `period` until the
    /// returned handle is dropped.
    pub fn spawn(
        name: &str,
        period: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Periodic {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let (stopped, wake) = &*shared;
                loop {
                    let guard = stopped.lock().expect("periodic stop flag poisoned");
                    let (guard, _) = wake
                        .wait_timeout_while(guard, period, |stopped| !*stopped)
                        .expect("periodic stop flag poisoned");
                    if *guard {
                        return;
                    }
                    drop(guard);
                    tick();
                }
            })
            .unwrap_or_else(|e| panic!("spawn thread {name}: {e}"));
        Periodic {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        let (stopped, wake) = &*self.stop;
        // A bool is valid whatever a panicking holder left, so a poisoned flag
        // is still set rather than skipped.
        *stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn ticks_run_in_order_and_none_after_drop() {
        let (sent, ticked) = mpsc::channel();
        let mut next = 0u32;
        let periodic = Periodic::spawn("periodic-test", Duration::from_millis(1), move || {
            let _ = sent.send(next);
            next += 1;
        });
        for expected in 0..5 {
            assert_eq!(ticked.recv_timeout(Duration::from_secs(10)), Ok(expected));
        }
        drop(periodic);
        // The joined thread dropped the tick closure and its sender, so every
        // tick that ran is already queued and none can follow.
        let rest: Vec<u32> = ticked.try_iter().collect();
        assert!(
            rest.iter().copied().eq(5..5 + rest.len() as u32),
            "{rest:?}"
        );
        assert_eq!(ticked.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn an_hour_period_drops_at_once() {
        let periodic = Periodic::spawn("periodic-test", Duration::from_secs(3600), || {
            panic!("no tick is due within an hour")
        });
        // Give the thread time to reach its wait, so the drop has to wake it.
        std::thread::sleep(Duration::from_millis(50));
        // Drop on a helper thread, so a drop that blocks fails the test
        // instead of hanging it.
        let (sent, dropped) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(periodic);
            let _ = sent.send(());
        });
        assert_eq!(dropped.recv_timeout(Duration::from_secs(1)), Ok(()));
        dropper.join().unwrap();
    }
}
