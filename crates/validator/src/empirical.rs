//! Stage 3 — validation with empirical data (§5.3, Figure 8).
//!
//! Two complementary checks:
//!
//! * [`validate_config_files`] — replay configuration files collected
//!   from running devices against the validated VDM. For each instance
//!   line: find its matching template *in the view implied by the
//!   file's indentation structure*, and verify the parent instance's
//!   template actually opens that view. Unmatched instances are recorded
//!   with their reason for expert audit.
//! * [`validate_on_device`] — for templates the empirical data never
//!   exercises, generate instances from their CGMs, push them to a live
//!   (simulated) device over TCP — navigating the opener chain first —
//!   and read back `display current-configuration` to confirm the line
//!   took effect.

use nassim_cgm::{generate, matching::is_cli_match, CliGraph};
use nassim_corpus::{Vdm, VdmNodeId};
use nassim_device::resilient::{
    Clock, Navigated, ResilienceError, ResiliencePolicy, ResilientClient, RetryEvent, WallClock,
};
use nassim_device::Response;
use nassim_diag::NassimError;
use nassim_syntax::parse_template;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Why a config line failed validation (Figure 8's recorded reasons).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum UnmatchReason {
    /// No template in the whole VDM matches the instance.
    NoTemplate,
    /// A template matches, but not in the view the file structure
    /// implies (parent/child mismatch on the hierarchy).
    WrongHierarchy { matched_elsewhere_in: Vec<String> },
}

/// One failed config line.
#[derive(Debug, Clone, Serialize)]
pub struct UnmatchedInstance {
    pub file: String,
    pub line_no: usize,
    pub line: String,
    pub reason: UnmatchReason,
}

/// The stage-3 result over a config corpus.
#[derive(Debug, Clone, Default)]
pub struct EmpiricalReport {
    /// Instance lines examined.
    pub total_instances: usize,
    /// Lines matched to a template in the correct view.
    pub matched: usize,
    pub failures: Vec<UnmatchedInstance>,
    /// VDM node ids that matched at least one empirical instance (the
    /// "used templates" set; its complement feeds device validation).
    pub used_nodes: Vec<VdmNodeId>,
}

impl EmpiricalReport {
    /// The Table-4 matching ratio.
    pub fn matching_ratio(&self) -> f64 {
        if self.total_instances == 0 {
            return 1.0;
        }
        self.matched as f64 / self.total_instances as f64
    }

    /// Every unmatched config line as an `empirical`-stage warning
    /// diagnostic spanned at `file:line`.
    pub fn diagnostics(&self) -> Vec<nassim_diag::Diagnostic> {
        self.failures
            .iter()
            .map(|f| {
                let reason = match &f.reason {
                    UnmatchReason::NoTemplate => "no VDM template matches".to_string(),
                    UnmatchReason::WrongHierarchy {
                        matched_elsewhere_in,
                    } => format!(
                        "template matches only outside the implied view (in: {})",
                        matched_elsewhere_in.join(", ")
                    ),
                };
                nassim_diag::Diagnostic::warning(
                    nassim_diag::Stage::Empirical,
                    format!("config line `{}` unmatched: {reason}", f.line.trim()),
                )
                .with_span(nassim_diag::SourceSpan::point(&f.file, f.line_no))
            })
            .collect()
    }
}

/// Compiled matcher over a VDM: per-view template graphs.
pub struct VdmMatcher<'v> {
    /// node → graph (indexed by node id order of `nodes`).
    graphs: BTreeMap<VdmNodeId, CliGraph>,
    /// view name → node ids working in that view.
    by_view: BTreeMap<&'v str, Vec<VdmNodeId>>,
}

impl<'v> VdmMatcher<'v> {
    /// Compile every parseable node template.
    pub fn new(vdm: &'v Vdm) -> VdmMatcher<'v> {
        let mut graphs = BTreeMap::new();
        let mut by_view: BTreeMap<&str, Vec<VdmNodeId>> = BTreeMap::new();
        for (id, node) in vdm.iter() {
            if let Ok(struc) = parse_template(&node.template) {
                graphs.insert(id, CliGraph::build(&struc));
                by_view.entry(node.view.as_str()).or_default().push(id);
            }
        }
        let _ = vdm; // borrowed only during construction
        VdmMatcher { graphs, by_view }
    }

    /// Nodes in `view` matching `instance`.
    pub fn match_in_view(&self, view: &str, instance: &str) -> Vec<VdmNodeId> {
        self.by_view
            .get(view)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|id| is_cli_match(instance, &self.graphs[id]))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All nodes matching `instance`, anywhere.
    pub fn match_anywhere(&self, instance: &str) -> Vec<VdmNodeId> {
        self.graphs
            .iter()
            .filter(|(_, g)| is_cli_match(instance, g))
            .map(|(&id, _)| id)
            .collect()
    }

    /// The compiled graph of `id`, if its template parsed.
    pub fn graph(&self, id: VdmNodeId) -> Option<&CliGraph> {
        self.graphs.get(&id)
    }
}

/// Replay `files` (name, lines) against the VDM.
pub fn validate_config_files<'a>(
    vdm: &Vdm,
    files: impl IntoIterator<Item = (&'a str, &'a [String])>,
) -> EmpiricalReport {
    let matcher = VdmMatcher::new(vdm);
    let mut report = EmpiricalReport::default();
    let mut used: Vec<VdmNodeId> = Vec::new();

    for (file, lines) in files {
        // Stack of (indent, view entered by that line's matched node).
        let mut stack: Vec<(usize, String)> = Vec::new();
        for (line_no, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            report.total_instances += 1;
            let indent = line.len() - line.trim_start().len();
            let instance = line.trim_start();
            while stack.last().map(|&(d, _)| d >= indent).unwrap_or(false) {
                stack.pop();
            }
            let view = stack
                .last()
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| vdm.root_view.clone());
            let matches = matcher.match_in_view(&view, instance);
            match matches.first() {
                Some(&node) => {
                    report.matched += 1;
                    used.push(node);
                    if let Some(entered) = &vdm.node(node).enters_view {
                        stack.push((indent, entered.clone()));
                    }
                }
                None => {
                    let elsewhere = matcher.match_anywhere(instance);
                    let reason = if elsewhere.is_empty() {
                        UnmatchReason::NoTemplate
                    } else {
                        UnmatchReason::WrongHierarchy {
                            matched_elsewhere_in: elsewhere
                                .iter()
                                .map(|&id| vdm.node(id).view.clone())
                                .collect(),
                        }
                    };
                    report.failures.push(UnmatchedInstance {
                        file: file.to_string(),
                        line_no: line_no + 1,
                        line: line.clone(),
                        reason,
                    });
                }
            }
        }
    }
    used.sort_unstable();
    used.dedup();
    report.used_nodes = used;
    report
}

/// A node skipped after the resilience layer gave up on it — §5.3's
/// graceful-degradation bucket: the run still completes and reports,
/// the skipped nodes carry their cause for expert follow-up.
#[derive(Debug, Clone)]
pub struct SkippedNode {
    pub template: String,
    pub instance: String,
    /// Why the node was abandoned (retries exhausted, circuit open, …).
    pub cause: String,
}

/// Result of pushing generated instances at a live device.
#[derive(Debug, Clone, Default)]
pub struct DeviceValidation {
    /// Nodes exercised.
    pub nodes_tested: usize,
    /// Instances the device accepted.
    pub accepted: usize,
    /// Accepted instances whose read-back check found the config line.
    pub readback_ok: usize,
    /// Failures: (template, instance, what went wrong).
    pub failures: Vec<(String, String, String)>,
    /// Nodes abandoned after the retry budget / per-op retries ran out.
    /// A non-empty bucket means the run degraded but still completed.
    pub degraded: Vec<SkippedNode>,
    /// Total client-side retries performed while masking faults.
    pub retries: u64,
    /// Reconnects (each implies the opener chain was re-navigated).
    pub reconnects: u64,
    /// Every retry, in order, for diagnostics.
    pub retry_events: Vec<RetryEvent>,
}

impl DeviceValidation {
    /// Surface the run's recovery history and losses as `empirical`-stage
    /// diagnostics: every retry a note, every failure/degradation a
    /// warning.
    pub fn diagnostics(&self) -> Vec<nassim_diag::Diagnostic> {
        use nassim_diag::{Diagnostic, Stage};
        let mut out = Vec::new();
        for ev in &self.retry_events {
            out.push(Diagnostic::note(
                Stage::Empirical,
                format!(
                    "device op `{}` retried (attempt {}, backoff {:?}): {}",
                    ev.op,
                    ev.attempt + 1,
                    ev.backoff,
                    ev.reason
                ),
            ));
        }
        for (template, instance, why) in &self.failures {
            out.push(Diagnostic::warning(
                Stage::Empirical,
                format!("device validation failed for `{template}` (instance `{instance}`): {why}"),
            ));
        }
        for skipped in &self.degraded {
            out.push(Diagnostic::warning(
                Stage::Empirical,
                format!(
                    "device validation degraded: `{}` skipped after exhausting retries: {}",
                    skipped.template, skipped.cause
                ),
            ));
        }
        out
    }
}

/// Configuration of the device-push loop: instance seed plus the
/// resilience policy and clock the [`ResilientClient`] runs under.
pub struct DevicePush {
    /// Seed for instance generation (same seed → same instances).
    pub seed: u64,
    /// Retry/backoff/reconnect policy.
    pub policy: ResiliencePolicy,
    /// Sleep source for backoff — inject a manual clock in tests so no
    /// retry ever sleeps wall-clock.
    pub clock: Arc<dyn Clock>,
    /// Whole-node redo attempts when a reconnect loses per-session
    /// device state mid-sequence (a fresh CLI session has an empty
    /// running configuration, so the push + read-back must restart).
    pub node_attempts: u32,
}

impl DevicePush {
    pub fn new(seed: u64) -> DevicePush {
        DevicePush {
            seed,
            policy: ResiliencePolicy::default(),
            clock: Arc::new(WallClock),
            node_attempts: 4,
        }
    }
}

/// What one node's push + read-back sequence concluded.
enum NodeOutcome {
    /// Accepted and found in the running configuration.
    Confirmed,
    /// Operational (`display`-class) command: executing it *is* the
    /// check; there is no config line to read back.
    Operational,
    /// Accepted but missing from the running configuration.
    ReadbackMissing,
    /// The device rejected an opener on the navigation chain.
    OpenerRejected { opener: String, message: String },
    /// The device rejected the instance itself.
    Rejected { message: String },
}

/// Generate one instance per node in `nodes` and push it to the device at
/// `addr`, navigating the opener chain first (§5.3's scheme for commands
/// unused in empirical configurations). Default resilience policy and
/// wall clock; see [`validate_on_device_with`] for the knobs.
pub fn validate_on_device(
    vdm: &Vdm,
    nodes: &[VdmNodeId],
    addr: SocketAddr,
    seed: u64,
) -> Result<DeviceValidation, NassimError> {
    validate_on_device_with(vdm, nodes, addr, &DevicePush::new(seed))
}

/// The resilient device-push loop.
///
/// Failures are isolated per node: transient channel faults (resets,
/// stalls, garbled frames, `busy`) are masked by retry/reconnect inside
/// [`ResilientClient`]; a node whose retries run out lands in
/// [`DeviceValidation::degraded`] and the loop moves on. The only hard
/// error is failing to reach the device at all.
pub fn validate_on_device_with(
    vdm: &Vdm,
    nodes: &[VdmNodeId],
    addr: SocketAddr,
    cfg: &DevicePush,
) -> Result<DeviceValidation, NassimError> {
    let matcher = VdmMatcher::new(vdm);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut client = ResilientClient::connect(addr, cfg.policy.clone(), Arc::clone(&cfg.clock))
        .map_err(|e| NassimError::Device {
            reason: format!("connect to device: {e}"),
        })?;
    let mut out = DeviceValidation::default();

    for &id in nodes {
        let Some(graph) = matcher.graph(id) else { continue };
        out.nodes_tested += 1;
        let instance = generate::sample_instance(graph, &mut rng);
        let template = vdm.node(id).template.clone();

        // The opener chain of the node's view, root-first.
        let mut chain: Vec<VdmNodeId> = Vec::new();
        let mut cur = vdm.node(id).parent;
        while let Some(c) = cur {
            if c == vdm.root() {
                break;
            }
            chain.push(c);
            cur = vdm.node(c).parent;
        }
        chain.reverse();
        // Sample every opener instance up front: node retries replay the
        // exact same lines, and the RNG stream consumed per node does not
        // depend on how many faults were injected.
        let mut openers: Vec<String> = Vec::with_capacity(chain.len());
        let mut unparseable = false;
        for &opener in &chain {
            match matcher.graph(opener) {
                Some(og) => openers.push(generate::sample_instance(og, &mut rng)),
                None => {
                    out.failures.push((
                        template.clone(),
                        instance.clone(),
                        "opener template unparseable".into(),
                    ));
                    unparseable = true;
                    break;
                }
            }
        }
        if unparseable {
            continue;
        }

        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let generation = client.generation();
            match push_node(&mut client, &openers, &instance) {
                Ok(NodeOutcome::Confirmed) | Ok(NodeOutcome::Operational) => {
                    out.accepted += 1;
                    out.readback_ok += 1;
                }
                Ok(NodeOutcome::ReadbackMissing) => {
                    // A reconnect between push and read-back opens a fresh
                    // session whose running config is empty — the miss says
                    // nothing about the device. Redo the whole node.
                    if client.generation() != generation && attempt < cfg.node_attempts {
                        continue;
                    }
                    out.accepted += 1;
                    out.failures.push((
                        template.clone(),
                        instance.clone(),
                        "accepted but absent from running configuration".into(),
                    ));
                }
                Ok(NodeOutcome::OpenerRejected { opener, message }) => {
                    out.failures.push((
                        template.clone(),
                        opener,
                        format!("opener rejected: {message}"),
                    ));
                }
                Ok(NodeOutcome::Rejected { message }) => {
                    out.failures.push((
                        template.clone(),
                        instance.clone(),
                        format!("rejected: {message}"),
                    ));
                }
                Err(e) => {
                    // Graceful degradation: this node is abandoned, the
                    // run continues. With the circuit open, the remaining
                    // nodes fall through here without touching the wire.
                    out.degraded.push(SkippedNode {
                        template: template.clone(),
                        instance: instance.clone(),
                        cause: e.to_string(),
                    });
                }
            }
            break;
        }
    }
    let stats = client.stats();
    out.retries = stats.retries;
    out.reconnects = stats.reconnects;
    out.retry_events = client.take_events();
    Ok(out)
}

/// One node's full sequence: navigate the opener chain, push the
/// instance, read back. All ops go through the resilient client.
fn push_node(
    client: &mut ResilientClient,
    openers: &[String],
    instance: &str,
) -> Result<NodeOutcome, ResilienceError> {
    match client.navigate(openers)? {
        Navigated::Rejected { opener, message } => {
            return Ok(NodeOutcome::OpenerRejected { opener, message });
        }
        Navigated::Entered => {}
    }
    match client.exec(instance)? {
        Response::Ok { .. } => match client.exec("display current-configuration")? {
            Response::Output { lines } => {
                if lines.iter().any(|l| l.trim() == instance.trim()) {
                    Ok(NodeOutcome::Confirmed)
                } else {
                    Ok(NodeOutcome::ReadbackMissing)
                }
            }
            // A non-output answer to `display` means the response stream
            // desynchronised; treat like a missing read-back (the caller
            // redoes the node if the session dropped).
            _ => Ok(NodeOutcome::ReadbackMissing),
        },
        Response::Output { .. } => Ok(NodeOutcome::Operational),
        Response::Err { message } => Ok(NodeOutcome::Rejected { message }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::Vdm;

    /// A tiny hand-built VDM: bgp → peer, plus sysname at the root.
    fn vdm() -> Vdm {
        let mut v = Vdm::new("helix", "system view");
        let root = v.root();
        let bgp = v.add_node(root, "bgp <as-number>", "system view", None, Some("BGP view".into()));
        v.add_node(bgp, "peer <ipv4-address> as-number <as-number>", "BGP view", None, None);
        v.add_node(root, "sysname <host-name>", "system view", None, None);
        v
    }

    #[test]
    fn matches_hierarchical_config() {
        let v = vdm();
        let lines = vec![
            "sysname core1".to_string(),
            "bgp 65001".to_string(),
            " peer 10.0.0.2 as-number 65002".to_string(),
        ];
        let report = validate_config_files(&v, [("f1", lines.as_slice())]);
        assert_eq!(report.total_instances, 3);
        assert_eq!(report.matched, 3);
        assert!((report.matching_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(report.used_nodes.len(), 3);
    }

    #[test]
    fn unknown_command_reported_as_no_template() {
        let v = vdm();
        let lines = vec!["frobnicate 12".to_string()];
        let report = validate_config_files(&v, [("f1", lines.as_slice())]);
        assert_eq!(report.matched, 0);
        assert_eq!(report.failures[0].reason, UnmatchReason::NoTemplate);
        assert_eq!(report.failures[0].line_no, 1);
    }

    #[test]
    fn view_violation_reported_as_wrong_hierarchy() {
        let v = vdm();
        // `peer …` at the root view: the template exists, but only under
        // the BGP view.
        let lines = vec!["peer 10.0.0.2 as-number 65002".to_string()];
        let report = validate_config_files(&v, [("f1", lines.as_slice())]);
        assert_eq!(report.matched, 0);
        match &report.failures[0].reason {
            UnmatchReason::WrongHierarchy { matched_elsewhere_in } => {
                assert_eq!(matched_elsewhere_in, &vec!["BGP view".to_string()]);
            }
            other => panic!("expected WrongHierarchy, got {other:?}"),
        }
    }

    #[test]
    fn dedent_closes_views() {
        let v = vdm();
        let lines = vec![
            "bgp 65001".to_string(),
            " peer 10.0.0.2 as-number 65002".to_string(),
            "sysname edge1".to_string(), // back at root after dedent
        ];
        let report = validate_config_files(&v, [("f1", lines.as_slice())]);
        assert_eq!(report.matched, 3);
    }

    #[test]
    fn used_nodes_deduplicated() {
        let v = vdm();
        let lines = vec!["sysname a".to_string(), "sysname b".to_string()];
        let report = validate_config_files(&v, [("f1", lines.as_slice())]);
        assert_eq!(report.matched, 2);
        assert_eq!(report.used_nodes.len(), 1);
    }

    #[test]
    fn device_validation_round_trip() {
        use nassim_device::{DeviceModel, DeviceServer};
        use std::sync::Arc;
        let v = vdm();
        // Device model mirrors the VDM (a correct manual).
        let mut m = DeviceModel::new("system view");
        m.add_view("BGP view", "system view").unwrap();
        m.add_command("system view", "bgp <as-number>", Some("BGP view")).unwrap();
        m.add_command("BGP view", "peer <ipv4-address> as-number <as-number>", None).unwrap();
        m.add_command("system view", "sysname <host-name>", None).unwrap();
        let mut server = DeviceServer::spawn(Arc::new(m)).unwrap();

        let nodes: Vec<VdmNodeId> = v.walk();
        let result = validate_on_device(&v, &nodes, server.addr(), 7).unwrap();
        assert_eq!(result.nodes_tested, 3);
        assert_eq!(result.accepted, 3, "failures: {:?}", result.failures);
        assert_eq!(result.readback_ok, 3);
        server.stop();
    }

    /// The firmware mirror of `vdm()` used by the resilience tests.
    fn device_model() -> nassim_device::DeviceModel {
        use nassim_device::DeviceModel;
        let mut m = DeviceModel::new("system view");
        m.add_view("BGP view", "system view").unwrap();
        m.add_command("system view", "bgp <as-number>", Some("BGP view")).unwrap();
        m.add_command("BGP view", "peer <ipv4-address> as-number <as-number>", None).unwrap();
        m.add_command("system view", "sysname <host-name>", None).unwrap();
        m
    }

    #[test]
    fn transient_faults_are_masked_by_retry() {
        use nassim_device::faults::FaultPlan;
        use nassim_device::resilient::{ManualClock, ResiliencePolicy};
        use nassim_device::DeviceServer;
        use std::sync::Arc;
        use std::time::Duration;

        let v = vdm();
        let plan = Arc::new(FaultPlan::uniform(5, 0.25).with_delay(Duration::from_millis(120)));
        let mut server =
            DeviceServer::spawn_with(Arc::new(device_model()), Some(Arc::clone(&plan))).unwrap();
        let clock = Arc::new(ManualClock::new());
        let cfg = DevicePush {
            seed: 7,
            policy: ResiliencePolicy {
                op_timeout: Duration::from_millis(60),
                connect_timeout: ResiliencePolicy::CONNECT_TIMEOUT,
                max_retries: 16,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(500),
                retry_budget: 10_000,
            },
            clock: Arc::clone(&clock) as Arc<dyn nassim_device::resilient::Clock>,
            node_attempts: 8,
        };
        let nodes: Vec<VdmNodeId> = v.walk();
        let result = validate_on_device_with(&v, &nodes, server.addr(), &cfg).unwrap();
        server.stop();

        // Same counts as the fault-free run: every transient fault masked.
        assert_eq!(result.nodes_tested, 3);
        assert_eq!(result.accepted, 3, "failures: {:?}", result.failures);
        assert_eq!(result.readback_ok, 3);
        assert!(result.degraded.is_empty(), "degraded: {:?}", result.degraded);
        // Faults were really injected and really retried…
        let injected = plan.take_injections();
        assert!(!injected.is_empty(), "no faults injected at 25%");
        assert!(result.retries > 0);
        // …and every retry surfaced as a diagnostic note.
        let diags = result.diagnostics();
        let notes = diags
            .iter()
            .filter(|d| d.severity == nassim_diag::Severity::Note)
            .count();
        assert_eq!(notes as u64, result.retries);
        // No retry ever slept wall-clock: backoffs went to the manual clock.
        assert_eq!(clock.slept().len() as u64, result.retries);
    }

    #[test]
    fn dead_device_degrades_gracefully_instead_of_aborting() {
        use nassim_device::faults::{FaultKind, FaultPlan};
        use nassim_device::resilient::{ManualClock, ResiliencePolicy};
        use nassim_device::DeviceServer;
        use std::sync::Arc;
        use std::time::Duration;

        let v = vdm();
        // Every request answers busy, forever: retries can never win.
        let plan = Arc::new(FaultPlan::only(9, FaultKind::Busy, 1.0));
        let mut server =
            DeviceServer::spawn_with(Arc::new(device_model()), Some(plan)).unwrap();
        let cfg = DevicePush {
            seed: 7,
            policy: ResiliencePolicy {
                op_timeout: Duration::from_millis(200),
                max_retries: 2,
                retry_budget: 5,
                base_backoff: Duration::from_millis(1),
                ..Default::default()
            },
            clock: Arc::new(ManualClock::new()),
            node_attempts: 2,
        };
        let nodes: Vec<VdmNodeId> = v.walk();
        let result = validate_on_device_with(&v, &nodes, server.addr(), &cfg).unwrap();
        server.stop();

        // The run completed — no whole-run abort — with every node in the
        // degraded bucket and zero spurious failures.
        assert_eq!(result.nodes_tested, 3);
        assert_eq!(result.accepted, 0);
        assert_eq!(result.degraded.len(), 3, "degraded: {:?}", result.degraded);
        assert!(result.failures.is_empty());
        // Degradations surface as warnings.
        let diags = result.diagnostics();
        let warnings = diags
            .iter()
            .filter(|d| d.severity == nassim_diag::Severity::Warning)
            .count();
        assert_eq!(warnings, 3);
    }

    #[test]
    fn device_rejects_templates_the_firmware_lacks() {
        use nassim_device::{DeviceModel, DeviceServer};
        use std::sync::Arc;
        let mut v = vdm();
        let root = v.root();
        // The manual documents a command the device does not implement —
        // exactly the defect §5.3's live testing exists to catch.
        v.add_node(root, "phantom-feature <x>", "system view", None, None);
        let mut m = DeviceModel::new("system view");
        m.add_view("BGP view", "system view").unwrap();
        m.add_command("system view", "bgp <as-number>", Some("BGP view")).unwrap();
        m.add_command("BGP view", "peer <ipv4-address> as-number <as-number>", None).unwrap();
        m.add_command("system view", "sysname <host-name>", None).unwrap();
        let mut server = DeviceServer::spawn(Arc::new(m)).unwrap();

        let nodes: Vec<VdmNodeId> = v.walk();
        let result = validate_on_device(&v, &nodes, server.addr(), 7).unwrap();
        assert_eq!(result.nodes_tested, 4);
        assert_eq!(result.accepted, 3);
        assert_eq!(result.failures.len(), 1);
        assert!(result.failures[0].0.starts_with("phantom-feature"));
        server.stop();
    }
}
