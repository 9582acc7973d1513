//! Fault isolation, cancellation, and deterministic fault injection.
//!
//! A sweep (and an exploration, which is one) compiles many independent
//! design points; one bad point must never take down the process, hang a
//! worker forever, or poison a shared cache. A point is one fault domain
//! (`hida::sweep::isolated`), and stopping it is one `Result`. This module
//! provides the substrate all layers share:
//!
//! * [`CancelToken`] — a deadline chain: an optional deadline and an optional
//!   parent (the whole-run budget). Each point runs under one child token,
//!   front end to emission. Work stops at the next [`checkpoint`] — every
//!   pass boundary, and the start of `Compiler::finish` — with an
//!   [`IrError::Cancelled`], so cancellation is cooperative and outcomes are
//!   deterministic: a cancelled point reports a structured `TimedOut`; it
//!   never publishes partial state (cache publishes are whole values or
//!   nothing). Nothing unwinds to cancel.
//! * [`error_from_panic`] — what a caught panic becomes: an
//!   [`IrError::WorkerPanic`] carrying the payload's message. Two layers
//!   catch: the pass runner around each pass body, and the point's own
//!   fault domain around everything else.
//! * [`FaultPlan`] — seeded (splitmix64, like the fuzzer) deterministic fault
//!   injection: pass panics and artificial worker stalls, assigned to named
//!   points by a label shuffle that is independent of job count and
//!   scheduling. Both drive real recovery paths: a pass panic unwinds through
//!   the pass runner's `catch_unwind`, a stall under a deadline meets the
//!   cancellation checkpoints.
//! * A thread-local *point guard* ([`install_point`]) carrying the active
//!   token and armed faults through the compilation layers without plumbing
//!   a parameter through every signature. All checkpoint/injection sites are
//!   zero-cost when no guard is installed anywhere in the process (a single
//!   relaxed atomic load).
//! * [`lock_recover`] — poison-tolerant mutex acquisition: a worker that
//!   panicked while holding a shared lock (the estimate store's state, the
//!   intern table's growth lock) must not wedge every later lookup.

use crate::error::{IrError, IrResult};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Acquires a mutex, recovering the guard if a previous holder panicked.
///
/// Every shared `Mutex` in the workspace (the estimate store's state, the
/// intern table's growth lock) protects data that stays structurally valid
/// across a panic: entries are inserted whole or not at all. Recovering from poison is therefore always safe here, and required —
/// a panicked worker must not wedge every subsequent lookup.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TokenInner {
    /// Deadline instant plus the configured millisecond budget (kept for
    /// deterministic messages: the instant itself is machine state, the
    /// budget is what the user asked for).
    deadline: Option<(Instant, u64)>,
    parent: Option<Arc<TokenInner>>,
}

/// A shareable deadline chain: an optional deadline, and an optional parent
/// token (a whole-run budget chained above per-point deadlines). The token
/// expires when any deadline on the chain has passed. Cloning shares the
/// same underlying state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    fn chain(deadline_ms: Option<u64>, parent: Option<Arc<TokenInner>>) -> Self {
        let deadline = deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
        CancelToken {
            inner: Arc::new(TokenInner { deadline, parent }),
        }
    }

    /// A token that never expires.
    pub fn new() -> Self {
        CancelToken::chain(None, None)
    }

    /// A token that expires `budget_ms` milliseconds from now.
    pub fn with_deadline_ms(budget_ms: u64) -> Self {
        CancelToken::chain(Some(budget_ms), None)
    }

    /// A child token: expires when this token expires or when the optional
    /// per-child deadline passes.
    pub fn child(&self, deadline_ms: Option<u64>) -> Self {
        CancelToken::chain(deadline_ms, Some(self.inner.clone()))
    }

    /// Why the token has expired, or `None` while no deadline on its chain
    /// has passed. The reason names the configured budget
    /// (`"deadline of {ms}ms exceeded"`, plus `" (run budget)"` when the
    /// deadline is an ancestor's) — never the wall-clock overshoot, so the
    /// message is machine-independent. Reads the clock at most once, and not
    /// at all for a chain without deadlines.
    pub fn expired(&self) -> Option<String> {
        let mut now = None;
        let mut token = &*self.inner;
        let mut suffix = "";
        loop {
            if let Some((at, ms)) = token.deadline {
                if *now.get_or_insert_with(Instant::now) >= at {
                    return Some(format!("deadline of {ms}ms exceeded{suffix}"));
                }
            }
            token = token.parent.as_deref()?;
            suffix = " (run budget)";
        }
    }
}

/// The message of a panic payload: the `&str` or `String` that `panic!`
/// raises, `None` for any other payload.
fn payload_message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// Classifies a caught panic payload into a structured
/// [`IrError::WorkerPanic`] at `site`, keeping the payload's message.
pub fn error_from_panic(site: &str, payload: Box<dyn Any + Send>) -> IrError {
    IrError::WorkerPanic {
        site: site.to_string(),
        message: payload_message(&*payload)
            .unwrap_or("<non-string panic payload>")
            .to_string(),
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// One injected fault kind, assigned to a sweep-point label by a
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the point's first pass body (isolated into `Panicked`).
    PassPanic,
    /// Artificial stall at compile start (with a per-point deadline this
    /// converts into a deterministic `TimedOut`).
    Stall,
}

impl FaultKind {
    /// Short name, as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::PassPanic => "pass-panic",
            FaultKind::Stall => "stall",
        }
    }
}

/// A seeded, deterministic fault-injection plan: how many points of each
/// fault kind to afflict and which points (chosen by a seeded label shuffle).
///
/// Parsed from the CLI spec grammar `seed=7,pass-panic=1,stall=1,stall-ms=200`
/// (every key optional; counts default to 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shuffle seed for the label assignment.
    pub seed: u64,
    /// Number of points afflicted with an injected pass panic.
    pub pass_panics: usize,
    /// Number of points afflicted with an artificial stall.
    pub stalls: usize,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            pass_panics: 0,
            stalls: 0,
            stall_ms: 100,
        }
    }
}

/// Deterministic 64-bit mixer (splitmix64), shared with the fuzzer's RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses the `--inject-faults` spec grammar. See the type docs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (key, value) = entry.split_once('=').map_or((entry, None), |(key, value)| {
                (key.trim(), Some(value.trim()))
            });
            let number = || -> Result<u64, String> {
                value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("invalid fault entry '{entry}' (expected {key}=<n>)"))
            };
            match key {
                "seed" => plan.seed = number()?,
                "pass-panic" => plan.pass_panics = number()? as usize,
                "stall" => plan.stalls = number()? as usize,
                "stall-ms" => plan.stall_ms = number()?,
                other => {
                    return Err(format!(
                        "unknown fault key '{other}' (expected seed, pass-panic, stall or \
                         stall-ms)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.pass_panics + self.stalls == 0
    }

    /// Deterministically assigns fault kinds to distinct labels: a seeded
    /// Fisher–Yates shuffle of the label indices, then the first
    /// `pass_panics` get [`FaultKind::PassPanic`] and the next `stalls`
    /// [`FaultKind::Stall`]. Counts beyond the label set are clamped.
    /// Independent of job count and scheduling by construction.
    pub fn assign(&self, labels: &[String]) -> BTreeMap<String, FaultKind> {
        let mut order: Vec<usize> = (0..labels.len()).collect();
        let mut state = self.seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut assignment = BTreeMap::new();
        let mut next = order.into_iter();
        let mut take = |count: usize, kind: FaultKind, map: &mut BTreeMap<String, FaultKind>| {
            for _ in 0..count {
                let Some(idx) = next.next() else { return };
                map.insert(labels[idx].clone(), kind);
            }
        };
        take(self.pass_panics, FaultKind::PassPanic, &mut assignment);
        take(self.stalls, FaultKind::Stall, &mut assignment);
        assignment
    }

    /// The per-point armed faults for `kind` under this plan.
    pub fn arm(&self, kind: FaultKind) -> PointFaults {
        let mut faults = PointFaults::default();
        match kind {
            FaultKind::PassPanic => faults.pass_panic = true,
            FaultKind::Stall => faults.stall_ms = Some(self.stall_ms),
        }
        faults
    }
}

/// The faults armed for one point. Each fires at most once per installed
/// guard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointFaults {
    /// Panic inside the first pass body.
    pub pass_panic: bool,
    /// Sleep this long at compile start.
    pub stall_ms: Option<u64>,
}

impl PointFaults {
    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        !self.pass_panic && self.stall_ms.is_none()
    }
}

// ---------------------------------------------------------------------------
// The thread-local point guard and its checkpoint/injection sites
// ---------------------------------------------------------------------------

/// Process-wide count of installed point guards. Checkpoint and injection
/// sites early-return when zero, so the whole layer is one relaxed atomic
/// load when unused.
static ACTIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);

struct PointCtx {
    token: CancelToken,
    /// One-shot firing state for the armed faults of this point.
    pass_panic: Cell<bool>,
    stall_ms: Cell<Option<u64>>,
}

thread_local! {
    static POINT: RefCell<Option<PointCtx>> = const { RefCell::new(None) };
}

/// Installs `token` (and optionally armed `faults`) as this thread's active
/// point context until the returned guard drops. Guards nest: dropping
/// restores the previous context. The compilation layers (pass runner,
/// estimator, compiler) consult the context at their checkpoint sites. A
/// point compiles start to finish on the thread that installed its guard, so
/// which checkpoints and injections it meets does not depend on the job
/// count.
pub fn install_point(token: CancelToken, faults: Option<PointFaults>) -> PointGuard {
    let faults = faults.unwrap_or_default();
    let ctx = PointCtx {
        token,
        pass_panic: Cell::new(faults.pass_panic),
        stall_ms: Cell::new(faults.stall_ms),
    };
    let prev = POINT.with(|p| p.borrow_mut().replace(ctx));
    ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
    PointGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Scope guard returned by [`install_point`]; restores the previous point
/// context on drop. Not `Send`: it must drop on the installing thread.
pub struct PointGuard {
    prev: Option<PointCtx>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for PointGuard {
    fn drop(&mut self) {
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
        let prev = self.prev.take();
        POINT.with(|p| *p.borrow_mut() = prev);
    }
}

/// Runs `f` with the thread's point context, if any.
fn with_point<R>(f: impl FnOnce(&PointCtx) -> R) -> Option<R> {
    if ACTIVE_GUARDS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    POINT.with(|p| p.borrow().as_ref().map(f))
}

/// Cancellation checkpoint (every pass boundary, and the start of
/// `Compiler::finish`): returns [`IrError::Cancelled`] when the active token
/// has expired. A no-op (one relaxed load) when no guard is installed;
/// `site` is asked for the error's site only when there is an error.
pub fn checkpoint<S: Into<String>>(site: impl FnOnce() -> S) -> IrResult<()> {
    match with_point(|ctx| ctx.token.expired()).flatten() {
        Some(detail) => Err(IrError::Cancelled {
            site: site().into(),
            detail,
        }),
        None => Ok(()),
    }
}

/// Injection site: panics once per guard when a pass panic is armed.
/// Placed inside the pass runner's isolated pass-body region, so the panic
/// exercises the real catch-and-classify machinery end to end.
pub fn injected_pass_panic(pass: &str) {
    let fire = with_point(|ctx| ctx.pass_panic.replace(false)).unwrap_or(false);
    if fire {
        panic!("injected fault: pass panic at '{pass}'");
    }
}

/// Injection site: sleeps once per guard when a stall is armed.
pub fn injected_stall(_site: &str) {
    let ms = with_point(|ctx| ctx.stall_ms.replace(None)).flatten();
    if let Some(ms) = ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Installs a process-wide panic hook that silences the default report for
/// the *expected* unwinds — `injected fault:` panics — while deferring
/// everything else to the previous hook. Used by the CLI so chaos runs don't
/// spray backtraces for faults that are isolated by design. Idempotent.
pub fn silence_expected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = payload_message(info.payload())
                .is_some_and(|message| message.starts_with("injected fault:"));
            if !expected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let mutex = Arc::new(Mutex::new(7_i32));
        let clone = mutex.clone();
        let result = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(result.is_err());
        assert!(mutex.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&mutex), 7);
        *lock_recover(&mutex) = 8;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn cancel_token_flag_deadline_and_parent() {
        let token = CancelToken::new();
        assert_eq!(token.expired(), None);
        assert_eq!(token.child(None).expired(), None);

        let expired = CancelToken::with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            expired.expired().as_deref(),
            Some("deadline of 0ms exceeded")
        );

        let run = CancelToken::with_deadline_ms(0);
        let child = run.child(Some(60_000));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            child.expired().as_deref(),
            Some("deadline of 0ms exceeded (run budget)"),
            "a parent's deadline reaches its children"
        );
        let own = CancelToken::new().child(Some(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(own.expired().as_deref(), Some("deadline of 0ms exceeded"));
    }

    #[test]
    fn fault_plan_parses_the_spec_grammar() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let plan = FaultPlan::parse("seed=7, pass-panic=2,stall=1,stall-ms=50").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.pass_panics, 2);
        assert_eq!(plan.stalls, 1);
        assert_eq!(plan.stall_ms, 50);
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("pass-panic").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn fault_plan_rejects_the_store_and_retry_keys_with_the_valid_key_list() {
        for spec in [
            "store-read=1",
            "short-write=1",
            "transient",
            "seed=7,transient",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains("unknown fault key")
                    && err.contains("expected seed, pass-panic, stall or stall-ms"),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn fault_assignment_is_deterministic_and_distinct() {
        let labels: Vec<String> = (0..8).map(|i| format!("p{i:02}")).collect();
        let plan = FaultPlan::parse("seed=3,pass-panic=2,stall=2").unwrap();
        let a = plan.assign(&labels);
        let b = plan.assign(&labels);
        assert_eq!(a, b, "same seed, same assignment");
        assert_eq!(a.len(), 4, "distinct labels per fault");
        assert_eq!(
            a.values().filter(|&&k| k == FaultKind::PassPanic).count(),
            2
        );
        let other = FaultPlan::parse("seed=4,pass-panic=2,stall=2")
            .unwrap()
            .assign(&labels);
        assert!(a != other || labels.len() <= 4, "seeds shuffle differently");
        // Counts beyond the label set are clamped, never panic.
        let tiny: Vec<String> = vec!["only".to_string()];
        let clamped = plan.assign(&tiny);
        assert_eq!(clamped.len(), 1);
    }

    #[test]
    fn checkpoints_are_inert_without_a_guard_and_fire_with_one() {
        assert!(checkpoint(|| "nowhere").is_ok());
        injected_pass_panic("nowhere");

        let live = install_point(CancelToken::new(), None);
        assert!(checkpoint(|| "armed").is_ok());
        let expired = install_point(CancelToken::with_deadline_ms(0), None);
        std::thread::sleep(Duration::from_millis(2));
        let err = checkpoint(|| "pass 'lower'").unwrap_err();
        assert_eq!(
            err,
            IrError::Cancelled {
                site: "pass 'lower'".to_string(),
                detail: "deadline of 0ms exceeded".to_string(),
            }
        );
        drop(expired);
        assert!(checkpoint(|| "restored").is_ok(), "guard restores on drop");
        drop(live);
        assert!(checkpoint(|| "after-drop").is_ok());
    }

    #[test]
    fn injection_sites_fire_exactly_once_per_guard() {
        let faults = PointFaults {
            pass_panic: true,
            stall_ms: Some(0),
        };
        let _guard = install_point(CancelToken::new(), Some(faults));
        let panic = std::panic::catch_unwind(|| injected_pass_panic("construct"))
            .expect_err("armed pass panic fires");
        assert_eq!(
            error_from_panic("pass 'construct'", panic),
            IrError::WorkerPanic {
                site: "pass 'construct'".to_string(),
                message: "injected fault: pass panic at 'construct'".to_string(),
            }
        );
        // Second probe: already fired.
        injected_pass_panic("construct");

        assert_eq!(with_point(|ctx| ctx.stall_ms.get()), Some(Some(0)));
        injected_stall("compile:start");
        assert_eq!(with_point(|ctx| ctx.stall_ms.get()), Some(None));
    }

    #[test]
    fn panic_classification_keeps_payload_messages() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        let err = error_from_panic("pass 'lower'", payload);
        match &err {
            IrError::WorkerPanic { site, message } => {
                assert_eq!(site, "pass 'lower'");
                assert_eq!(message, "boom 42");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        let payload = std::panic::catch_unwind(|| std::panic::panic_any(7_u32)).unwrap_err();
        let err = error_from_panic("pass 'lower'", payload);
        assert!(
            matches!(&err, IrError::WorkerPanic { message, .. }
                if message == "<non-string panic payload>"),
            "{err}"
        );
    }
}
