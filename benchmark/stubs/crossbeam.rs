//! Benchmark-owned std-only stand-in for `crossbeam::channel`, the one
//! crossbeam module the benchmarked crates use (`EngineCluster`'s job
//! queues, which no benchmark workload runs). A bounded channel over
//! `std::sync::mpsc`; receivers clone by sharing the one std receiver.
pub mod channel {
    use std::sync::{mpsc, Arc, Mutex, PoisonError};

    pub struct SendError<T>(pub T);
    #[derive(Debug)]
    pub struct RecvError;

    pub struct Sender<T>(mpsc::SyncSender<T>);
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(Arc::new(Mutex::new(rx))))
    }

    impl<T> Sender<T> {
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            self.0.send(t).map_err(|e| SendError(e.0))
        }
    }
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }
    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let rx = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv().map_err(|_| RecvError)
        }
    }
    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }
}
