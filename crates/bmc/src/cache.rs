//! Content-addressed cache keys for check results.
//!
//! A campaign journal must decide whether a recorded result still answers
//! the question a runner is about to ask. The key is a stable 64-bit hash
//! of exactly the inputs that determine a check's outcome:
//!
//! * the **COI-sliced transition relation** — the bit-blasted AIG restricted
//!   (via [`autocc_aig::sequential_coi`]) to the sequential cone of the
//!   checked properties and constraints, so edits outside the cone do not
//!   invalidate cached results;
//! * the **property and constraint identities** (names plus their AIG
//!   literals);
//! * the **check-relevant [`CheckConfig`] fields**: `max_depth` and
//!   `conflict_budget`, the two budgets whose values change the
//!   *deterministic* outcome. Wall-clock budgets, worker counts, slicing,
//!   retries and poll intervals only change how fast (or whether, on a slow
//!   machine) an answer arrives, never which answer is correct, so they are
//!   deliberately excluded — a whole-campaign identity including them is
//!   pinned separately by [`config_fingerprint`];
//! * the **check mode** (bounded check vs. unbounded proof attempt).
//!
//! The hash is FNV-1a 64 over an explicit byte stream — unlike
//! `std::hash::DefaultHasher` it is specified, so keys are stable across
//! builds, platforms and runs, which is the whole point of writing them to
//! a journal.

use crate::config::{CheckConfig, CLUSTER_OVERLAP};
use crate::portfolio::RetryPolicy;
use autocc_aig::{AigLit, AigNode, ConeWalk, SeqAig};
use autocc_hdl::{Module, NodeId};
use std::fmt;

/// Whether a cached result answers a bounded check or a proof attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckMode {
    /// Bounded covert-channel search (`check_portfolio`).
    Check,
    /// Unbounded proof attempt (`prove`).
    Prove,
}

impl CheckMode {
    /// Stable lower-case name used in journal records.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckMode::Check => "check",
            CheckMode::Prove => "prove",
        }
    }

    /// Inverse of [`CheckMode::as_str`].
    pub fn parse(s: &str) -> Option<CheckMode> {
        match s {
            "check" => Some(CheckMode::Check),
            "prove" => Some(CheckMode::Prove),
            _ => None,
        }
    }
}

impl fmt::Display for CheckMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A stable content address for one check: equal keys mean "the same
/// question", so a journaled answer under this key may be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub u64);

impl ContentKey {
    /// Parses the 16-hex-digit form produced by [`fmt::Display`].
    pub fn parse_hex(s: &str) -> Option<ContentKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(ContentKey)
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a 64 over an explicit, delimited byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot collide by shifting.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// An AIG literal as a stable integer (node index shifted, inversion in
/// the low bit) — the same encoding the AIG uses internally.
fn lit_u64(l: AigLit) -> u64 {
    ((l.node() as u64) << 1) | u64::from(l.inverted())
}

/// Fingerprint of the campaign-level configuration, pinned in a journal's
/// header record. Two configs with different fingerprints must not share a
/// journal: even fields that do not enter [`content_key`] (time budgets,
/// retries, slicing) change which *degraded* outcomes a campaign can
/// legitimately record, so resuming under a different configuration would
/// mix regimes. The scheduling-only `jobs` is excluded — the portfolio
/// merge is jobs-invariant by construction.
/// Process-isolation knobs (`isolation`, `memory_limit_mb`,
/// `heartbeat_ms`) are likewise excluded: an isolated worker runs the
/// identical deterministic solve, so a journal written in-process resumes
/// under `--isolate` (and vice versa) without mixing regimes; a
/// memory-killed check records a *failed* row, which `--retry-failed`
/// already knows how to reopen.
pub fn config_fingerprint(config: &CheckConfig) -> u64 {
    let mut h = Fnv::new();
    h.str("autocc-config-fingerprint-v2");
    h.u64(config.max_depth as u64);
    h.opt_u64(config.conflict_budget);
    h.opt_u64(
        config
            .time_budget
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
    );
    h.u64(u64::from(config.slice));
    h.u64(u64::from(config.retries));
    // The retry escalation and the cluster overlap are constants now;
    // hashing them still keeps journals from earlier builds (which made
    // them settable) resumable. Milli-units: f64 bit patterns are not a
    // stable identity.
    h.u64(u64::from(RetryPolicy::default().escalation));
    h.str(config.granularity.as_str());
    h.u64((CLUSTER_OVERLAP * 1000.0).round() as u64);
    h.finish()
}

/// Binding digest tying a certificate hash to the content key it
/// certifies. Journals store `(status, certificate hash, binding)` per
/// record; on resume, a row claiming `certified` is only trusted if
/// recomputing this digest from the row's own key and certificate hash
/// reproduces the stored binding — a flipped or transplanted hash fails
/// the check and the row degrades to FAILED(certification), never PASS.
pub fn certificate_digest(key: ContentKey, certificate_hash: u64) -> u64 {
    let mut h = Fnv::new();
    h.str("autocc-cert-binding-v1");
    h.u64(key.0);
    h.u64(certificate_hash);
    h.finish()
}

/// Computes the content key of one check over `module`: the COI-sliced
/// AIG reachable from `properties` and `constraints`, the property and
/// constraint identities, the deterministic budgets of `config`, and the
/// check `mode`. See the module docs for exactly what is (and is not)
/// part of the key.
pub fn content_key(
    module: &Module,
    properties: &[(String, NodeId)],
    constraints: &[NodeId],
    config: &CheckConfig,
    mode: CheckMode,
) -> ContentKey {
    let seq = SeqAig::from_module(module);
    content_key_with_seq(&seq, properties, constraints, config, mode)
}

/// Like [`content_key`], but over an already-blasted [`SeqAig`] of the
/// module, so per-cluster key computation bit-blasts the miter once and
/// reuses it for every cluster's (property subset, constraint set) pair.
pub fn content_key_with_seq(
    seq: &SeqAig,
    properties: &[(String, NodeId)],
    constraints: &[NodeId],
    config: &CheckConfig,
    mode: CheckMode,
) -> ContentKey {
    let mut roots: Vec<AigLit> = Vec::new();
    for (_, p) in properties {
        roots.extend_from_slice(&seq.node_lits[p.index()]);
    }
    for c in constraints {
        roots.extend_from_slice(&seq.node_lits[c.index()]);
    }
    // One walk gives the sequential COI and the combinational
    // reachability of the sliced design: the cones of the roots plus the
    // next-state functions of every kept state bit.
    let mut walk = ConeWalk::new(seq);
    walk.extend(&roots);
    let (coi, visited) = (walk.coi(), walk.visited());
    let nodes = seq.aig.nodes();

    let mut h = Fnv::new();
    h.str("autocc-content-key-v1");
    h.str(mode.as_str());
    h.u64(config.max_depth as u64);
    h.opt_u64(config.conflict_budget);

    h.u64(properties.len() as u64);
    for (name, p) in properties {
        h.str(name);
        for &l in &seq.node_lits[p.index()] {
            h.u64(lit_u64(l));
        }
    }
    h.u64(constraints.len() as u64);
    for c in constraints {
        for &l in &seq.node_lits[c.index()] {
            h.u64(lit_u64(l));
        }
    }

    // Kept state bits: index, reset value, name, current/next literals.
    for (i, keep) in coi.state_keep.iter().enumerate() {
        if !*keep {
            continue;
        }
        h.u64(i as u64);
        h.u64(u64::from(seq.state_init[i]));
        h.str(&seq.state_info[i].name);
        h.u64(lit_u64(seq.state_cur[i]));
        h.u64(lit_u64(seq.state_next[i]));
    }

    // Kept input-port bits (flattened in `port_keep` order: ports in
    // declaration order, LSB first).
    let mut bit = 0usize;
    for port in &seq.input_lits {
        for &l in port {
            if coi.port_keep[bit] {
                h.u64(bit as u64);
                h.u64(lit_u64(l));
            }
            bit += 1;
        }
    }

    // The reachable combinational graph, in node-index order.
    for (n, v) in visited.iter().enumerate() {
        if !*v {
            continue;
        }
        h.u64(n as u64);
        match nodes[n] {
            AigNode::False => h.u64(0),
            AigNode::Input => h.u64(1),
            AigNode::And(a, b) => {
                h.u64(2);
                h.u64(lit_u64(a));
                h.u64(lit_u64(b));
            }
        }
    }
    ContentKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_hdl::{Bv, ModuleBuilder};
    use std::time::Duration;

    /// A two-register device where only `a` feeds the checked output; `b`
    /// is dead logic with respect to the property.
    fn device(dead_init: u64) -> (Module, Vec<(String, NodeId)>) {
        let mut b = ModuleBuilder::new("dev");
        let inc = b.input("inc", 1);
        let ra = b.reg("a", 4, Bv::zero(4));
        let rb = b.reg("b", 4, Bv::new(4, dead_init));
        let one = b.lit(4, 1);
        let na = b.add(ra, one);
        let next_a = b.mux(inc, na, ra);
        b.set_next(ra, next_a);
        let nb = b.add(rb, one);
        b.set_next(rb, nb);
        let five = b.lit(4, 5);
        let ok = b.ult(ra, five);
        b.output("small", ok);
        let m = b.build();
        let p = m.output_node("small").unwrap();
        (m, vec![("small".to_string(), p)])
    }

    fn key(m: &Module, props: &[(String, NodeId)], config: &CheckConfig) -> ContentKey {
        content_key(m, props, &[], config, CheckMode::Check)
    }

    #[test]
    fn key_is_stable_across_calls() {
        let (m, props) = device(0);
        let c = CheckConfig::default().depth(8);
        assert_eq!(key(&m, &props, &c), key(&m, &props, &c));
    }

    #[test]
    fn key_ignores_logic_outside_the_cone() {
        // Changing the reset value of the dead register `b` leaves the
        // property's sequential cone untouched, so the key must not move.
        let (m0, props) = device(0);
        let (m1, _) = device(7);
        let c = CheckConfig::default().depth(8);
        assert_eq!(key(&m0, &props, &c), key(&m1, &props, &c));
    }

    #[test]
    fn key_tracks_the_deterministic_budgets_and_mode() {
        let (m, props) = device(0);
        let base = CheckConfig::default().depth(8);
        let k = key(&m, &props, &base);
        assert_ne!(k, key(&m, &props, &base.clone().depth(9)), "depth");
        assert_ne!(
            k,
            key(&m, &props, &base.clone().conflicts(Some(100))),
            "conflict budget"
        );
        assert_ne!(
            k,
            content_key(&m, &props, &[], &base, CheckMode::Prove),
            "mode"
        );
        // Machine-dependent / scheduling knobs must NOT move the key.
        assert_eq!(
            k,
            key(
                &m,
                &props,
                &base
                    .clone()
                    .timeout(Duration::from_secs(1))
                    .jobs(8)
                    .slice(true)
                    .retries(5)
            ),
            "timeout/jobs/slice/retries must not enter the key"
        );
    }

    #[test]
    fn fingerprint_tracks_the_campaign_config() {
        let base = CheckConfig::default().depth(8);
        let f = config_fingerprint(&base);
        assert_eq!(f, config_fingerprint(&base.clone().jobs(16)), "jobs");
        assert_ne!(f, config_fingerprint(&base.clone().depth(9)));
        assert_ne!(
            f,
            config_fingerprint(&base.clone().timeout(Duration::from_secs(9)))
        );
        assert_ne!(f, config_fingerprint(&base.clone().slice(true)));
    }

    #[test]
    fn fingerprint_tracks_granularity_and_overlap() {
        use crate::config::Granularity;
        let base = CheckConfig::default().depth(8);
        let f = config_fingerprint(&base);
        assert_ne!(
            f,
            config_fingerprint(&base.clone().granularity(Granularity::Register)),
            "granularity changes which rows a journal can hold"
        );
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        use crate::config::Granularity;
        // Journals pin these in their header: a drift would refuse to
        // resume every journal written before it.
        let base = CheckConfig::default().depth(8);
        assert_eq!(config_fingerprint(&base), 0xceba_5b36_d157_63f5);
        assert_eq!(
            config_fingerprint(&base.granularity(Granularity::Register)),
            0xab6e_7a20_1287_c376
        );
    }

    #[test]
    fn fingerprint_of_a_huge_time_budget_saturates() {
        let base = CheckConfig::default().depth(8);
        let huge = config_fingerprint(&base.clone().timeout(Duration::from_secs(u64::MAX)));
        // A budget past `u64::MAX` µs would wrap when narrowed; it
        // saturates onto the largest representable one instead.
        assert_eq!(
            huge,
            config_fingerprint(&base.clone().timeout(Duration::from_micros(u64::MAX)))
        );
    }

    #[test]
    fn shared_seq_key_matches_the_direct_key() {
        let (m, props) = device(0);
        let c = CheckConfig::default().depth(8);
        let seq = SeqAig::from_module(&m);
        assert_eq!(
            content_key(&m, &props, &[], &c, CheckMode::Check),
            content_key_with_seq(&seq, &props, &[], &c, CheckMode::Check)
        );
    }

    #[test]
    fn isolation_moves_neither_key_nor_fingerprint() {
        // Subprocess isolation runs the identical deterministic solve, so
        // a journal written in-process must resume under --isolate (and
        // vice versa): the isolation knobs enter neither hash.
        let (m, props) = device(0);
        let base = CheckConfig::default().depth(8);
        let isolated = base
            .clone()
            .isolate()
            .memory_limit_mb(Some(512))
            .heartbeat_ms(50);
        assert_eq!(key(&m, &props, &base), key(&m, &props, &isolated));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&isolated));
    }

    #[test]
    fn certify_moves_neither_key_nor_fingerprint() {
        // Certification only *checks* answers, never changes them: the
        // search is bit-identical with proof logging on or off. Stable
        // tables must therefore stay byte-identical under --certify, and
        // certified/uncertified journals must resume interchangeably.
        let (m, props) = device(0);
        let base = CheckConfig::default().depth(8);
        let certified = base.clone().certify(true);
        assert_eq!(key(&m, &props, &base), key(&m, &props, &certified));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&certified));
    }

    #[test]
    fn certificate_digest_binds_key_and_hash() {
        let k = ContentKey(0xdead_beef_0123_4567);
        let d = certificate_digest(k, 42);
        assert_eq!(d, certificate_digest(k, 42), "digest is stable");
        assert_ne!(d, certificate_digest(k, 43), "hash is bound");
        assert_ne!(
            d,
            certificate_digest(ContentKey(k.0 ^ 1), 42),
            "key is bound"
        );
    }

    #[test]
    fn content_key_hex_round_trips() {
        let k = ContentKey(0x0123_4567_89ab_cdef);
        assert_eq!(k.to_string(), "0123456789abcdef");
        assert_eq!(ContentKey::parse_hex(&k.to_string()), Some(k));
        assert_eq!(ContentKey::parse_hex("xyz"), None);
        assert_eq!(ContentKey::parse_hex(""), None);
    }

    #[test]
    fn check_mode_round_trips() {
        for mode in [CheckMode::Check, CheckMode::Prove] {
            assert_eq!(CheckMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(CheckMode::parse("bogus"), None);
    }
}
