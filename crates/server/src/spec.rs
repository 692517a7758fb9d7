//! Declarative sweep specifications and their resolution.
//!
//! A sweep spec is a small TOML-subset document describing a
//! `configs × trials` grid — the unit of work the service accepts:
//!
//! ```toml
//! # 4 configs × 4 trials, the ci_smoke grid.
//! name = "ci-smoke"
//! trials = 4
//! seed = 1994
//! scale = 20000
//! sampling = 8
//! components = "user"
//! workloads = ["espresso", "mpeg_play"]
//! cache_kb = [1, 4]
//! ```
//!
//! [`SweepPlan::resolve`] parses and validates the text and expands the
//! cross product `workloads × sizes` (workload-major) into the exact
//! [`SystemConfig`] vector a direct [`run_sweep_resilient`] caller
//! would build, so the service's committed values are bit-identical to
//! the library path's.
//!
//! The parser is hand-rolled — the workspace builds offline with no
//! serde/toml — and accepts only what the format needs: `key = value`
//! lines, `#` comments, integers, booleans, quoted strings, and flat
//! arrays of integers or strings.
//!
//! [`run_sweep_resilient`]: tapeworm_sim::run_sweep_resilient

use std::fmt;

use tapeworm_core::{CacheConfig, TlbSimConfig};
use tapeworm_sim::{
    fnv1a, planned_sweep_fingerprint, sweep_fingerprint, AllocPolicy, ComponentSet, CostKind,
    PlanMode, PlannerConfig, SystemConfig,
};
use tapeworm_stats::seed::SeedSeq;
use tapeworm_workload::Workload;

/// Version tag folded into every spec fingerprint, so a format change
/// can never alias a cache entry from an older server.
pub const SPEC_VERSION: &str = "tapeworm-sweep-spec-v1";

/// A spec that failed to parse or validate, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    line: usize,
    message: String,
}

impl SpecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line,
            message: message.into(),
        }
    }

    fn global(message: impl Into<String>) -> Self {
        SpecError::new(0, message)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

/// The model axis of a spec: which geometry parameter is swept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelAxis {
    /// Instruction-cache sweep over total sizes in KiB (`cache_kb`).
    Cache(Vec<u64>),
    /// TLB sweep over entry counts (`tlb_entries`), fully associative.
    Tlb(Vec<u64>),
}

/// A parsed, validated sweep specification (the declarative form).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Job name; restricted to `[A-Za-z0-9_.-]` so it can appear in
    /// file names and JSON without escaping.
    pub name: String,
    /// Trials per configuration (≥ 1).
    pub trials: usize,
    /// Base seed for the whole sweep.
    pub seed: u64,
    /// Instruction-scale divisor applied to every config.
    pub scale: u64,
    /// Set-sampling denominator (1 = no sampling).
    pub sampling: u64,
    /// Measured component set.
    pub components: ComponentSet,
    /// Workloads, in spec order (the outer cross-product axis).
    pub workloads: Vec<Workload>,
    /// Swept model geometry (the inner cross-product axis).
    pub axis: ModelAxis,
    /// Cache line size in bytes (cache axis only).
    pub line_bytes: u64,
    /// Cache associativity (cache axis only).
    pub assoc: u32,
    /// Frame allocation policy.
    pub alloc: AllocPolicy,
    /// Miss-handler cost model.
    pub cost: CostKind,
    /// Whether the resident-run fast path is enabled.
    pub fast_path: bool,
    /// Sweep execution plan: `full` (ground truth everywhere, the
    /// default) or `pruned` (model-guided planner). The service's
    /// `plan_override` option (the CLI's `TW_PLAN`) overrides this at
    /// run time.
    pub plan: PlanMode,
    /// Relative CI half-width bound for the planner's early stop
    /// (`pruned` only; `0.0` disables early stopping).
    pub ci_bound: f64,
}

/// One raw `key = value` right-hand side.
enum Value {
    Int(u64),
    Float(f64),
    Bool(bool),
    Str(String),
    IntList(Vec<u64>),
    StrList(Vec<String>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::IntList(_) => "integer array",
            Value::StrList(_) => "string array",
        }
    }
}

/// Strips a trailing `#` comment that sits outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(raw: &str, lineno: usize) -> Result<Value, SpecError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(SpecError::new(lineno, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(SpecError::new(lineno, "stray quote inside string"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(v) = raw.parse::<u64>() {
        return Ok(Value::Int(v));
    }
    // Floats must carry a decimal point, so `inf`/`nan` spellings and
    // negative integers stay rejected.
    if raw.contains('.') {
        if let Ok(v) = raw.parse::<f64>() {
            if v.is_finite() && v >= 0.0 {
                return Ok(Value::Float(v));
            }
        }
    }
    Err(SpecError::new(
        lineno,
        format!("unrecognised value `{raw}`"),
    ))
}

fn parse_value(raw: &str, lineno: usize) -> Result<Value, SpecError> {
    let raw = raw.trim();
    let Some(rest) = raw.strip_prefix('[') else {
        return parse_scalar(raw, lineno);
    };
    let Some(inner) = rest.strip_suffix(']') else {
        return Err(SpecError::new(lineno, "unterminated array"));
    };
    let items: Vec<&str> = inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(SpecError::new(lineno, "empty array"));
    }
    let mut ints = Vec::new();
    let mut strs = Vec::new();
    for item in &items {
        match parse_scalar(item, lineno)? {
            Value::Int(v) => ints.push(v),
            Value::Str(s) => strs.push(s),
            other => {
                return Err(SpecError::new(
                    lineno,
                    format!(
                        "array items must be integers or strings, got {}",
                        other.kind()
                    ),
                ))
            }
        }
    }
    if !ints.is_empty() && !strs.is_empty() {
        return Err(SpecError::new(lineno, "mixed array element types"));
    }
    if ints.is_empty() {
        Ok(Value::StrList(strs))
    } else {
        Ok(Value::IntList(ints))
    }
}

fn workload_by_name(name: &str, lineno: usize) -> Result<Workload, SpecError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            SpecError::new(
                lineno,
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ),
            )
        })
}

impl SweepSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// Returns the first parse or validation failure, with its line
    /// number where one applies.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut name: Option<(String, usize)> = None;
        let mut trials: Option<u64> = None;
        let mut seed: u64 = 1994;
        let mut scale: u64 = 100;
        let mut sampling: u64 = 1;
        let mut components = ComponentSet::all();
        let mut workloads: Option<(Vec<Workload>, usize)> = None;
        let mut cache_kb: Option<Vec<u64>> = None;
        let mut tlb_entries: Option<Vec<u64>> = None;
        let mut line_bytes: u64 = 16;
        let mut assoc: u64 = 1;
        let mut alloc = AllocPolicy::default();
        let mut cost = CostKind::default();
        let mut fast_path = true;
        let mut plan = PlanMode::Full;
        let mut ci_bound = PlannerConfig::default().ci_bound;
        let mut seen: Vec<String> = Vec::new();

        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, raw_value)) = line.split_once('=') else {
                return Err(SpecError::new(lineno, "expected `key = value`"));
            };
            let key = key.trim();
            if seen.iter().any(|k| k == key) {
                return Err(SpecError::new(lineno, format!("duplicate key `{key}`")));
            }
            seen.push(key.to_string());
            let value = parse_value(raw_value, lineno)?;

            let type_err = |v: &Value, want: &str| {
                SpecError::new(lineno, format!("`{key}` must be {want}, got {}", v.kind()))
            };
            match key {
                "name" => match value {
                    Value::Str(s) => name = Some((s, lineno)),
                    v => return Err(type_err(&v, "a string")),
                },
                "trials" => match value {
                    Value::Int(v) => trials = Some(v),
                    v => return Err(type_err(&v, "an integer")),
                },
                "seed" => match value {
                    Value::Int(v) => seed = v,
                    v => return Err(type_err(&v, "an integer")),
                },
                "scale" => match value {
                    Value::Int(v) if v > 0 => scale = v,
                    Value::Int(_) => return Err(SpecError::new(lineno, "`scale` must be ≥ 1")),
                    v => return Err(type_err(&v, "an integer")),
                },
                "sampling" => match value {
                    Value::Int(v) if v.is_power_of_two() => sampling = v,
                    Value::Int(_) => {
                        return Err(SpecError::new(lineno, "`sampling` must be a power of two"))
                    }
                    v => return Err(type_err(&v, "an integer")),
                },
                "components" => match value {
                    Value::Str(s) => {
                        components = match s.as_str() {
                            "all" => ComponentSet::all(),
                            "user" => ComponentSet::user_only(),
                            "kernel" => ComponentSet::kernel_only(),
                            "servers" => ComponentSet::servers_only(),
                            other => {
                                return Err(SpecError::new(
                                    lineno,
                                    format!(
                                        "unknown component set `{other}` \
                                         (expected all, user, kernel, or servers)"
                                    ),
                                ))
                            }
                        }
                    }
                    v => return Err(type_err(&v, "a string")),
                },
                "workloads" => match value {
                    Value::StrList(names) => {
                        let mut ws = Vec::with_capacity(names.len());
                        for n in &names {
                            ws.push(workload_by_name(n, lineno)?);
                        }
                        workloads = Some((ws, lineno));
                    }
                    v => return Err(type_err(&v, "a string array")),
                },
                "cache_kb" => match value {
                    Value::IntList(v) => cache_kb = Some(v),
                    v => return Err(type_err(&v, "an integer array")),
                },
                "tlb_entries" => match value {
                    Value::IntList(v) => tlb_entries = Some(v),
                    v => return Err(type_err(&v, "an integer array")),
                },
                "line_bytes" => match value {
                    Value::Int(v) => line_bytes = v,
                    v => return Err(type_err(&v, "an integer")),
                },
                "assoc" => match value {
                    Value::Int(v) => assoc = v,
                    v => return Err(type_err(&v, "an integer")),
                },
                "alloc" => match value {
                    Value::Str(s) => {
                        alloc = match s.as_str() {
                            "random" => AllocPolicy::Random,
                            "sequential" => AllocPolicy::Sequential,
                            other => match other.strip_prefix("coloring:") {
                                Some(bits) => {
                                    AllocPolicy::Coloring(bits.parse::<u64>().map_err(|_| {
                                        SpecError::new(lineno, "bad coloring bit count")
                                    })?)
                                }
                                None => {
                                    return Err(SpecError::new(
                                        lineno,
                                        format!(
                                            "unknown alloc policy `{other}` (expected \
                                             random, sequential, or coloring:<bits>)"
                                        ),
                                    ))
                                }
                            },
                        }
                    }
                    v => return Err(type_err(&v, "a string")),
                },
                "cost" => match value {
                    Value::Str(s) => {
                        cost = match s.as_str() {
                            "optimized" => CostKind::Optimized,
                            "unoptimized_c" => CostKind::UnoptimizedC,
                            "hardware_assisted" => CostKind::HardwareAssisted,
                            other => {
                                return Err(SpecError::new(
                                    lineno,
                                    format!(
                                        "unknown cost model `{other}` (expected optimized, \
                                         unoptimized_c, or hardware_assisted)"
                                    ),
                                ))
                            }
                        }
                    }
                    v => return Err(type_err(&v, "a string")),
                },
                "fast_path" => match value {
                    Value::Bool(v) => fast_path = v,
                    v => return Err(type_err(&v, "a boolean")),
                },
                "plan" => match value {
                    Value::Str(s) => {
                        plan = match s.as_str() {
                            "full" => PlanMode::Full,
                            "pruned" => PlanMode::Pruned,
                            other => {
                                return Err(SpecError::new(
                                    lineno,
                                    format!("unknown plan `{other}` (expected full or pruned)"),
                                ))
                            }
                        }
                    }
                    v => return Err(type_err(&v, "a string")),
                },
                "ci_bound" => match value {
                    Value::Float(v) if v < 1.0 => ci_bound = v,
                    Value::Int(0) => ci_bound = 0.0,
                    Value::Float(_) | Value::Int(_) => {
                        return Err(SpecError::new(
                            lineno,
                            "`ci_bound` must be in [0, 1) — a relative CI half-width",
                        ))
                    }
                    v => return Err(type_err(&v, "a number")),
                },
                other => {
                    return Err(SpecError::new(lineno, format!("unknown key `{other}`")));
                }
            }
        }

        let (name, name_line) = name.ok_or_else(|| SpecError::global("missing key `name`"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        {
            return Err(SpecError::new(
                name_line,
                "`name` must be non-empty and use only [A-Za-z0-9_.-]",
            ));
        }
        let trials = trials.ok_or_else(|| SpecError::global("missing key `trials`"))?;
        if trials == 0 {
            return Err(SpecError::global("`trials` must be ≥ 1"));
        }
        let (workloads, _) =
            workloads.ok_or_else(|| SpecError::global("missing key `workloads`"))?;
        let axis = match (cache_kb, tlb_entries) {
            (Some(kb), None) => ModelAxis::Cache(kb),
            (None, Some(entries)) => ModelAxis::Tlb(entries),
            (Some(_), Some(_)) => {
                return Err(SpecError::global(
                    "`cache_kb` and `tlb_entries` are mutually exclusive",
                ))
            }
            (None, None) => {
                return Err(SpecError::global(
                    "missing model axis: set `cache_kb` or `tlb_entries`",
                ))
            }
        };

        Ok(SweepSpec {
            name,
            trials: usize::try_from(trials)
                .map_err(|_| SpecError::global("`trials` out of range"))?,
            seed,
            scale,
            sampling,
            components,
            workloads,
            axis,
            line_bytes,
            assoc: u32::try_from(assoc).map_err(|_| SpecError::global("`assoc` out of range"))?,
            alloc,
            cost,
            fast_path,
            plan,
            ci_bound,
        })
    }
}

/// A resolved sweep: the spec plus its expanded [`SystemConfig`] grid
/// and the original source text (re-sent verbatim to out-of-process
/// workers so both sides resolve the identical plan).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    spec: SweepSpec,
    configs: Vec<SystemConfig>,
    source: String,
}

impl SweepPlan {
    /// Parses, validates and expands a spec document into a runnable
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns the first parse, validation, or geometry failure.
    pub fn resolve(text: &str) -> Result<Self, SpecError> {
        let spec = SweepSpec::parse(text)?;
        let mut configs = Vec::with_capacity(spec.workloads.len() * spec.axis_len());
        for &workload in &spec.workloads {
            match &spec.axis {
                ModelAxis::Cache(kbs) => {
                    for &kb in kbs {
                        let bytes = kb.checked_mul(1024).ok_or_else(|| {
                            SpecError::global(format!("cache size {kb} KiB overflows"))
                        })?;
                        let cache = CacheConfig::new(bytes, spec.line_bytes, spec.assoc)
                            .map_err(|e| SpecError::global(format!("bad cache geometry: {e}")))?;
                        configs.push(spec.apply(SystemConfig::cache(workload, cache)));
                    }
                }
                ModelAxis::Tlb(entry_counts) => {
                    for &entries in entry_counts {
                        let entries = u32::try_from(entries)
                            .ok()
                            .filter(|e| e.is_power_of_two())
                            .ok_or_else(|| {
                                SpecError::global(format!(
                                    "`tlb_entries` value {entries} must be a power of two"
                                ))
                            })?;
                        let tlb = TlbSimConfig {
                            entries,
                            associativity: entries,
                            ..TlbSimConfig::r3000()
                        };
                        configs.push(spec.apply(SystemConfig::tlb(workload, tlb)));
                    }
                }
            }
        }
        if configs.len().checked_mul(spec.trials).is_none() {
            return Err(SpecError::global(format!(
                "{} configs × {} trials overflows the cell count",
                configs.len(),
                spec.trials
            )));
        }
        Ok(SweepPlan {
            spec,
            configs,
            source: text.to_string(),
        })
    }

    /// The validated spec.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The expanded configuration grid, workload-major.
    pub fn configs(&self) -> &[SystemConfig] {
        &self.configs
    }

    /// The original spec text this plan was resolved from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Trials per configuration.
    pub fn trials(&self) -> usize {
        self.spec.trials
    }

    /// The sweep's base seed sequence.
    pub fn base(&self) -> SeedSeq {
        SeedSeq::new(self.spec.seed)
    }

    /// Total `(config, trial)` cells.
    pub fn total(&self) -> usize {
        self.configs.len() * self.spec.trials
    }

    /// The engine-level sweep identity — the same
    /// [`sweep_fingerprint`] the checkpoint store keys on, so service
    /// checkpoints are interchangeable with direct-engine ones.
    pub fn sweep_id(&self) -> u64 {
        sweep_fingerprint(&self.configs, self.spec.trials, self.base())
    }

    /// The planner configuration the spec asks for (before the
    /// service's `plan_override`).
    pub fn planner_config(&self) -> PlannerConfig {
        PlannerConfig {
            mode: self.spec.plan,
            ci_bound: self.spec.ci_bound,
        }
    }

    /// The service-level fingerprint: the planner-aware engine identity
    /// ([`planned_sweep_fingerprint`], which folds in the spec's plan
    /// mode and CI bound) extended with the spec format version and job
    /// name. This is the fingerprint cache key; because the mode is
    /// part of it, a pruned run can never be served from the cache for
    /// a `full` request or vice versa.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_as(self.spec.plan)
    }

    /// [`Self::fingerprint`] with the plan mode forced — the key the
    /// service uses after applying its `plan_override`, so the cache is
    /// keyed on what actually ran, not what the spec asked for.
    pub fn fingerprint_as(&self, mode: PlanMode) -> u64 {
        let planner = PlannerConfig {
            mode,
            ..self.planner_config()
        };
        let engine_id =
            planned_sweep_fingerprint(&self.configs, self.spec.trials, self.base(), &planner);
        fnv1a(format!("{SPEC_VERSION}|{}|{engine_id:016x}", self.spec.name).as_bytes())
    }
}

impl SweepSpec {
    fn axis_len(&self) -> usize {
        match &self.axis {
            ModelAxis::Cache(v) => v.len(),
            ModelAxis::Tlb(v) => v.len(),
        }
    }

    /// Applies the non-axis knobs to a freshly built config.
    fn apply(&self, config: SystemConfig) -> SystemConfig {
        let mut config = config
            .with_components(self.components)
            .with_sampling(self.sampling)
            .with_scale(self.scale)
            .with_alloc(self.alloc)
            .with_fast_path(self.fast_path);
        config.cost = self.cost;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        # exercise every key once
        name = "demo-1"
        trials = 3
        seed = 7
        scale = 500           # instruction divisor
        sampling = 4
        components = "user"
        workloads = ["espresso", "mpeg_play"]
        cache_kb = [1, 4, 16]
        line_bytes = 32
        assoc = 2
        alloc = "coloring:2"
        cost = "unoptimized_c"
        fast_path = false
    "#;

    #[test]
    fn full_spec_parses_and_expands_workload_major() {
        let plan = SweepPlan::resolve(SPEC).unwrap();
        assert_eq!(plan.configs().len(), 6);
        assert_eq!(plan.trials(), 3);
        assert_eq!(plan.total(), 18);
        assert_eq!(plan.base().value(), SeedSeq::new(7).value());
        // Workload-major: espresso × {1,4,16}K then mpeg_play × the same.
        let expect = |w, kb| {
            SweepPlan::resolve(&format!(
                "name = \"x\"\ntrials = 3\nseed = 7\nscale = 500\nsampling = 4\n\
                 components = \"user\"\nworkloads = [\"{w}\"]\ncache_kb = [{kb}]\n\
                 line_bytes = 32\nassoc = 2\nalloc = \"coloring:2\"\n\
                 cost = \"unoptimized_c\"\nfast_path = false\n"
            ))
            .unwrap()
            .configs()[0]
                .clone()
        };
        assert_eq!(plan.configs()[0], expect("espresso", 1));
        assert_eq!(plan.configs()[2], expect("espresso", 16));
        assert_eq!(plan.configs()[3], expect("mpeg_play", 1));
        let cfg = &plan.configs()[0];
        assert_eq!(cfg.scale, 500);
        assert_eq!(cfg.sample_denominator, 4);
        assert_eq!(cfg.cost, CostKind::UnoptimizedC);
        assert_eq!(cfg.alloc, AllocPolicy::Coloring(2));
        assert!(!cfg.fast_path);
    }

    #[test]
    fn defaults_match_library_defaults() {
        let plan = SweepPlan::resolve(
            "name = \"d\"\ntrials = 1\nworkloads = [\"xlisp\"]\ncache_kb = [4]\n",
        )
        .unwrap();
        let direct = SystemConfig::cache(Workload::Xlisp, CacheConfig::new(4096, 16, 1).unwrap());
        assert_eq!(plan.configs(), &[direct]);
        assert_eq!(plan.spec().seed, 1994);
    }

    #[test]
    fn tlb_axis_builds_fully_associative_r3000_variants() {
        let plan = SweepPlan::resolve(
            "name = \"t\"\ntrials = 2\nworkloads = [\"sdet\"]\ntlb_entries = [32, 128]\n",
        )
        .unwrap();
        assert_eq!(plan.configs().len(), 2);
        let tlb = TlbSimConfig {
            entries: 32,
            associativity: 32,
            ..TlbSimConfig::r3000()
        };
        assert_eq!(plan.configs()[0], SystemConfig::tlb(Workload::Sdet, tlb));
    }

    #[test]
    fn errors_carry_line_numbers_and_reasons() {
        for (text, want) in [
            ("name = \"a\"\ntrials = 0\nworkloads = [\"sdet\"]\ncache_kb = [4]", "trials"),
            ("name = \"a\"\ntrials = 1\nworkloads = [\"nope\"]\ncache_kb = [4]", "nope"),
            ("name = \"a\"\ntrials = 1\nworkloads = [\"sdet\"]", "model axis"),
            ("name = \"a\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [3]", "geometry"),
            ("name = \"a\"\nname = \"b\"", "duplicate"),
            ("name = \"bad name\"\ntrials = 1", "A-Za-z0-9"),
            ("nonsense", "key = value"),
            ("mystery = 1", "unknown key"),
            (
                "name = \"a\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [4]\ntlb_entries = [8]",
                "mutually exclusive",
            ),
        ] {
            let err = SweepPlan::resolve(text).unwrap_err().to_string();
            assert!(err.contains(want), "`{want}` not in `{err}` for:\n{text}");
        }
        let err = SweepSpec::parse("name = \"a\"\n\ntrials = [1").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn a_cell_count_that_overflows_is_a_spec_error() {
        let spec = |kbs: &str| {
            format!(
                "name = \"a\"\ntrials = {}\nworkloads = [\"sdet\"]\ncache_kb = [{kbs}]",
                u64::MAX
            )
        };
        let one = SweepPlan::resolve(&spec("4")).expect("one config fits");
        assert_eq!(one.total(), usize::MAX);
        let err = SweepPlan::resolve(&spec("4, 8")).unwrap_err().to_string();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn plan_and_ci_bound_round_trip_with_full_default() {
        // Omitted keys: the spec defaults to a full sweep with the
        // planner's default bound.
        let plan = SweepPlan::resolve(
            "name = \"d\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [4]\n",
        )
        .unwrap();
        assert_eq!(plan.spec().plan, PlanMode::Full);
        assert_eq!(plan.spec().ci_bound, PlannerConfig::default().ci_bound);
        assert_eq!(plan.planner_config().mode, PlanMode::Full);
        // Explicit keys round-trip into the PlannerConfig.
        let pruned = SweepPlan::resolve(
            "name = \"d\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [4]\n\
             plan = \"pruned\"\nci_bound = 0.125\n",
        )
        .unwrap();
        assert_eq!(pruned.spec().plan, PlanMode::Pruned);
        assert_eq!(pruned.spec().ci_bound, 0.125);
        let cfg = pruned.planner_config();
        assert_eq!(cfg.mode, PlanMode::Pruned);
        assert_eq!(cfg.ci_bound, 0.125);
        // ci_bound = 0 (integer spelling) disables early stopping.
        let zero = SweepPlan::resolve(
            "name = \"d\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [4]\nci_bound = 0\n",
        )
        .unwrap();
        assert_eq!(zero.spec().ci_bound, 0.0);
    }

    #[test]
    fn plan_and_ci_bound_reject_bad_values_with_line_numbers() {
        let base = "name = \"a\"\ntrials = 1\nworkloads = [\"sdet\"]\ncache_kb = [4]\n";
        for (tail, want) in [
            ("plan = \"adaptive\"\n", "unknown plan `adaptive`"),
            ("plan = 3\n", "`plan` must be a string"),
            ("ci_bound = 1.5\n", "must be in [0, 1)"),
            ("ci_bound = 2\n", "must be in [0, 1)"),
            ("ci_bound = \"tight\"\n", "`ci_bound` must be a number"),
            ("ci_bound = -0.5\n", "unrecognised value"),
            ("ci_bound = [0.1]\n", "got float"),
        ] {
            let err = SweepPlan::resolve(&format!("{base}{tail}"))
                .unwrap_err()
                .to_string();
            assert!(err.contains(want), "`{want}` not in `{err}`");
            assert!(err.contains("line 5"), "line number missing in `{err}`");
        }
    }

    #[test]
    fn fingerprint_separates_plan_modes_and_bounds() {
        let base = "name = \"a\"\ntrials = 2\nworkloads = [\"sdet\"]\ncache_kb = [4]\n";
        let full = SweepPlan::resolve(base).unwrap();
        let pruned = SweepPlan::resolve(&format!("{base}plan = \"pruned\"\n")).unwrap();
        // Same engine identity (checkpoints are mode-agnostic ground
        // truth) but distinct service cache keys.
        assert_eq!(full.sweep_id(), pruned.sweep_id());
        assert_ne!(full.fingerprint(), pruned.fingerprint());
        // The CI bound moves the pruned key but not the full one.
        let loose =
            SweepPlan::resolve(&format!("{base}plan = \"pruned\"\nci_bound = 0.25\n")).unwrap();
        assert_ne!(pruned.fingerprint(), loose.fingerprint());
        let full_loose = SweepPlan::resolve(&format!("{base}ci_bound = 0.25\n")).unwrap();
        assert_eq!(full.fingerprint(), full_loose.fingerprint());
        // fingerprint_as maps each plan onto the other mode's key.
        assert_eq!(full.fingerprint_as(PlanMode::Pruned), pruned.fingerprint());
        assert_eq!(pruned.fingerprint_as(PlanMode::Full), full.fingerprint());
    }

    #[test]
    fn fingerprint_extends_sweep_id_with_name() {
        let a = SweepPlan::resolve(
            "name = \"a\"\ntrials = 2\nworkloads = [\"sdet\"]\ncache_kb = [4]\n",
        )
        .unwrap();
        let b = SweepPlan::resolve(
            "name = \"b\"\ntrials = 2\nworkloads = [\"sdet\"]\ncache_kb = [4]\n",
        )
        .unwrap();
        // A rename keeps the engine identity (checkpoints survive) but
        // moves the cache key.
        assert_eq!(a.sweep_id(), b.sweep_id());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Comments and whitespace change neither.
        let c = SweepPlan::resolve(
            "# hi\nname = \"a\"\n\ntrials = 2\nworkloads = [\"sdet\"]  \ncache_kb = [4]\n",
        )
        .unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint());
    }
}
