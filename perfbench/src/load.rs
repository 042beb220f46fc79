//! Open- and closed-loop load generation.
//!
//! The load loop is single-threaded: it sends whatever is due, polls the
//! service, and sleeps briefly when there is nothing to do. A poll that
//! runs a long pass blocks the loop, so requests that come due during
//! it are sent late; the open loop still times them from when they were
//! due, which charges the stall to every request behind it.

use crate::trace::Tracer;

/// Where the load loop reads time and how it waits.
pub trait Clock {
    /// Seconds since the run origin.
    fn now(&self) -> f64;
    /// Waits about `secs` seconds.
    fn sleep(&mut self, secs: f64);
}

/// Wall-clock time since the tracer's origin.
#[derive(Debug)]
pub struct WallClock(pub std::time::Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
    fn sleep(&mut self, secs: f64) {
        std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
    }
}

/// A service under load: requests are identified by their index.
pub trait Service {
    /// Builds request `req` of caller `client` and offers it at `now`;
    /// `Err` carries the refusal reason.
    ///
    /// # Errors
    ///
    /// The reason the service refused the request.
    fn send(
        &mut self,
        req: usize,
        client: usize,
        now: f64,
        tracer: &mut Tracer,
    ) -> Result<(), String>;
    /// Runs the service up to `now`; returns every request it resolved,
    /// with `Err` carrying the reason for a late refusal. Spans the
    /// service records go under `parent` (the loop's `poll` span).
    fn poll(
        &mut self,
        now: f64,
        parent: Option<usize>,
        tracer: &mut Tracer,
    ) -> Vec<(usize, Result<(), String>)>;
    /// PASTA blocks in request `req`.
    fn blocks(&self, req: usize) -> usize;
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Still outstanding when the loop gave up waiting.
    Pending,
    /// Resolved successfully by the service (not yet verified).
    Completed,
    /// Refused at submit or later (shed, fault), with the reason.
    Refused(String),
}

/// One request's timeline, seconds since the run origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// PASTA blocks carried.
    pub blocks: usize,
    /// When the request was due (closed loop: when it was sent).
    pub due: f64,
    /// When the loop began sending it.
    pub sent: f64,
    /// When the service accepted it.
    pub submitted: f64,
    /// Start of the poll that resolved it.
    pub poll_start: Option<f64>,
    /// When the loop saw it resolved.
    pub done: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from due (open loop) or send (closed loop) to resolution.
    #[must_use]
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }
}

/// Polls that take longer than this, or resolve anything, are recorded
/// as `poll` spans; shorter empty ones fold into `idle`.
const BUSY_POLL_SECS: f64 = 0.002;
/// Sleep between empty polls.
const IDLE_SLEEP_SECS: f64 = 0.000_5;

/// Shared loop state: the records plus the idle-span bookkeeping.
struct Run<'a, C: Clock> {
    clock: &'a mut C,
    tracer: &'a mut Tracer,
    records: Vec<Record>,
    idle_since: Option<f64>,
    outstanding: usize,
}

impl<C: Clock> Run<'_, C> {
    fn end_idle(&mut self) {
        if let Some(start) = self.idle_since.take() {
            let now = self.clock.now();
            self.tracer.record("idle", start, now, None, None);
        }
    }

    fn send<S: Service + ?Sized>(&mut self, svc: &mut S, req: usize, client: usize, due: f64) {
        self.end_idle();
        let sent = self.clock.now();
        let result = svc.send(req, client, sent, self.tracer);
        let submitted = self.clock.now();
        let mut record = Record {
            blocks: svc.blocks(req),
            due,
            sent,
            submitted,
            poll_start: None,
            done: None,
            outcome: Outcome::Pending,
        };
        match result {
            Ok(()) => self.outstanding += 1,
            Err(reason) => {
                record.done = Some(submitted);
                record.outcome = Outcome::Refused(reason);
            }
        }
        debug_assert_eq!(self.records.len(), req);
        self.records.push(record);
    }

    /// Polls once; returns the requests resolved.
    fn poll<S: Service + ?Sized>(&mut self, svc: &mut S) -> Vec<usize> {
        let mark = self.tracer.spans().len();
        let start = self.clock.now();
        let span = self.tracer.record("poll", start, start, None, None);
        let events = svc.poll(start, span, self.tracer);
        let end = self.clock.now();
        if events.is_empty() && end - start < BUSY_POLL_SECS {
            // Nothing ran: the poll folds into the surrounding idle span.
            self.tracer.truncate(mark);
            self.idle_since.get_or_insert(start);
            return Vec::new();
        }
        self.tracer.set_end(span, end);
        if let Some(idle) = self.idle_since.take() {
            self.tracer.record("idle", idle, start, None, None);
        }
        let mut resolved = Vec::with_capacity(events.len());
        for (req, result) in events {
            let Some(record) = self.records.get_mut(req) else {
                continue;
            };
            if record.outcome != Outcome::Pending {
                continue;
            }
            record.poll_start = Some(start);
            record.done = Some(end);
            record.outcome = match result {
                Ok(()) => Outcome::Completed,
                Err(reason) => Outcome::Refused(reason),
            };
            self.outstanding -= 1;
            resolved.push(req);
        }
        resolved
    }

    fn wait(&mut self, secs: f64) {
        if self.idle_since.is_none() {
            self.idle_since = Some(self.clock.now());
        }
        self.clock.sleep(secs);
    }

    fn finish(mut self) -> Vec<Record> {
        self.end_idle();
        self.records
    }
}

/// Sends request `i` at `due[i]` (seconds since origin, ascending)
/// whatever the service is doing, then waits for everything sent until
/// `give_up`.
pub fn open_loop<S: Service + ?Sized, C: Clock>(
    svc: &mut S,
    clock: &mut C,
    tracer: &mut Tracer,
    due: &[f64],
    give_up: f64,
) -> Vec<Record> {
    let mut run = Run {
        clock,
        tracer,
        records: Vec::with_capacity(due.len()),
        idle_since: None,
        outstanding: 0,
    };
    let mut next = 0;
    loop {
        let now = run.clock.now();
        while next < due.len() && due[next] <= now {
            run.send(svc, next, next, due[next]);
            next += 1;
        }
        let resolved = run.poll(svc);
        let all_sent = next == due.len();
        if all_sent && run.outstanding == 0 {
            break;
        }
        if run.clock.now() >= give_up {
            break;
        }
        if resolved.is_empty() {
            let until_due = due
                .get(next)
                .map_or(IDLE_SLEEP_SECS, |&d| d - run.clock.now());
            run.wait(until_due.clamp(0.0, IDLE_SLEEP_SECS));
        }
    }
    run.finish()
}

/// `clients` callers that each send their next request as soon as the
/// previous one resolved, sending nothing after `stop`; then waits for
/// the stragglers until `give_up`.
pub fn closed_loop<S: Service + ?Sized, C: Clock>(
    svc: &mut S,
    clock: &mut C,
    tracer: &mut Tracer,
    clients: usize,
    stop: f64,
    give_up: f64,
) -> Vec<Record> {
    let mut run = Run {
        clock,
        tracer,
        records: Vec::new(),
        idle_since: None,
        outstanding: 0,
    };
    let mut client_of: Vec<usize> = Vec::new();
    let mut ready: Vec<usize> = (0..clients).collect();
    loop {
        for client in std::mem::take(&mut ready) {
            let now = run.clock.now();
            if now >= stop {
                continue;
            }
            let req = run.records.len();
            client_of.push(client);
            run.send(svc, req, client, now);
            if run.records[req].outcome != Outcome::Pending {
                ready.push(client);
            }
        }
        for req in run.poll(svc) {
            ready.push(client_of[req]);
        }
        let sending = !ready.is_empty() && run.clock.now() < stop;
        if run.outstanding == 0 && !sending {
            break;
        }
        if run.clock.now() >= give_up {
            break;
        }
        if ready.is_empty() {
            run.wait(IDLE_SLEEP_SECS);
        }
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A clock that only moves when told to.
    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0
        }
        fn sleep(&mut self, secs: f64) {
            self.0 += secs.max(1e-6);
        }
    }

    /// Serves every queued request in one pass that stalls the caller
    /// for `pass` seconds, starting once `min_batch` are queued.
    struct StallingService<'a> {
        clock: &'a std::cell::Cell<f64>,
        queued: Vec<usize>,
        pass: f64,
    }

    impl Service for StallingService<'_> {
        fn send(&mut self, req: usize, _c: usize, _n: f64, _t: &mut Tracer) -> Result<(), String> {
            self.queued.push(req);
            Ok(())
        }
        fn poll(
            &mut self,
            _now: f64,
            _p: Option<usize>,
            _t: &mut Tracer,
        ) -> Vec<(usize, Result<(), String>)> {
            if self.queued.is_empty() {
                return Vec::new();
            }
            self.clock.set(self.clock.get() + self.pass);
            self.queued.drain(..).map(|r| (r, Ok(()))).collect()
        }
        fn blocks(&self, _req: usize) -> usize {
            1
        }
    }

    /// Bridges the service's stall into the loop's clock.
    struct SharedClock<'a>(&'a std::cell::Cell<f64>);

    impl Clock for SharedClock<'_> {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep(&mut self, secs: f64) {
            self.0.set(self.0.get() + secs.max(1e-6));
        }
    }

    #[test]
    fn a_stalled_poll_is_charged_to_the_requests_due_behind_it() {
        let time = std::cell::Cell::new(0.0);
        let mut svc = StallingService {
            clock: &time,
            queued: Vec::new(),
            pass: 5.0,
        };
        let mut clock = SharedClock(&time);
        let mut tracer = Tracer::new(false, Instant::now());
        // Request 0 due at 0 starts a 5 s pass; 1..=4 come due during
        // it (1, 2, 3, 4 s) and can only be sent once it returns.
        let due = [0.0, 1.0, 2.0, 3.0, 4.0];
        let records = open_loop(&mut svc, &mut clock, &mut tracer, &due, 100.0);
        assert_eq!(records.len(), 5);
        assert!((records[0].latency().unwrap() - 5.0).abs() < 1e-9);
        for r in &records[1..] {
            // Sent late, at the end of the stall...
            assert!(r.sent >= 5.0, "sent at {}", r.sent);
            // ...then served by a second 5 s pass, and timed from due.
            assert!((r.done.unwrap() - 10.0).abs() < 1e-3);
            assert!((r.latency().unwrap() - (10.0 - r.due)).abs() < 1e-3);
            assert!(r.latency().unwrap() > r.done.unwrap() - r.sent);
        }
        // The lateness each request saw is the stall's remainder.
        assert!((records[1].sent - records[1].due - 4.0).abs() < 1e-3);
        assert!((records[4].sent - records[4].due - 1.0).abs() < 1e-3);
    }

    #[test]
    fn closed_loop_times_from_the_send_and_stops_sending_at_stop() {
        let time = std::cell::Cell::new(0.0);
        let mut svc = StallingService {
            clock: &time,
            queued: Vec::new(),
            pass: 2.0,
        };
        let mut clock = SharedClock(&time);
        let mut tracer = Tracer::new(false, Instant::now());
        let records = closed_loop(&mut svc, &mut clock, &mut tracer, 2, 5.0, 100.0);
        // Passes end at 2, 4, 6: both clients send at 0, 2 and 4.
        assert_eq!(records.len(), 6);
        for r in &records {
            assert_eq!(r.due, r.sent);
            assert!((r.latency().unwrap() - 2.0).abs() < 1e-9);
            assert_eq!(r.outcome, Outcome::Completed);
        }
    }

    #[test]
    fn the_loop_gives_up_on_requests_that_never_resolve() {
        struct BlackHole;
        impl Service for BlackHole {
            fn send(
                &mut self,
                _r: usize,
                _c: usize,
                _n: f64,
                _t: &mut Tracer,
            ) -> Result<(), String> {
                Ok(())
            }
            fn poll(
                &mut self,
                _n: f64,
                _p: Option<usize>,
                _t: &mut Tracer,
            ) -> Vec<(usize, Result<(), String>)> {
                Vec::new()
            }
            fn blocks(&self, _req: usize) -> usize {
                2
            }
        }
        let mut clock = FakeClock(0.0);
        let mut tracer = Tracer::new(false, Instant::now());
        let records = open_loop(&mut BlackHole, &mut clock, &mut tracer, &[0.0, 0.5], 1.0);
        assert!(records.iter().all(|r| r.outcome == Outcome::Pending));
        assert!(clock.0 >= 1.0);
    }
}
