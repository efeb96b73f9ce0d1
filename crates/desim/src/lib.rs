//! # churnbal-desim
//!
//! A small, deterministic discrete-event simulation kernel.
//!
//! The cluster substrate (`churnbal-cluster`) drives every experiment of
//! the paper through this kernel: node failures, recoveries, task
//! completions and load-transfer arrivals are future events in a priority
//! queue; the engine pops them in time order and hands them back to the
//! caller.
//!
//! Design points:
//!
//! * **Determinism.** Ties in event time are broken by insertion sequence
//!   number (FIFO), so a simulation is a pure function of its inputs — a
//!   property the replication-level regression tests rely on.
//! * **Cancellation.** A scheduled event can be cancelled in O(log n) via
//!   its [`EventId`]: the queue is an indexed binary heap (slot map from id
//!   to heap position), so cancellation removes the entry outright — no
//!   tombstones, no scans. A node failure cancels the node's pending
//!   task-completion event, for example.
//! * **Allocation-free steady state.** Slots and heap capacity are
//!   recycled, so `schedule`/`cancel`/`pop` perform no heap allocation
//!   once the queue has reached its high-water mark, and
//!   [`EventQueue::clear`] resets for reuse without releasing capacity.
//! * **Monotone clock.** [`SimTime`] is a validated, totally ordered wrapper
//!   over `f64`; the engine panics loudly if asked to schedule in the past.
//! * **Pluggable backends.** The future-event list comes in two shapes
//!   behind one contract: the indexed binary heap ([`EventQueue`],
//!   O(log n), small fleets) and the calendar queue ([`CalendarQueue`],
//!   amortised O(1), huge fleets). [`QueueBackend`] selects one —
//!   `Auto` switches on fleet size at [`CALENDAR_AUTO_THRESHOLD`] — and
//!   [`BackendQueue`] dispatches without virtual calls. Both backends pop
//!   in identical `(time, seq)` order, so the choice never changes a
//!   trajectory, only the wall clock.
//!
//! The kernel is payload-generic: it knows nothing about nodes or tasks.

mod backend;
mod calendar;
mod engine;
mod time;

pub use backend::{BackendQueue, EventQueueBackend, QueueBackend, CALENDAR_AUTO_THRESHOLD};
pub use calendar::CalendarQueue;
pub use engine::{EventId, EventQueue, ScheduledEvent};
pub use time::SimTime;
