//! Strict hand-rolled scenario parser over the in-tree
//! [`Json`](nca_telemetry::report::Json) value. Unknown keys are hard
//! errors that name the offending path (`scenario.traffic.loadz:
//! unknown key`), wrong types name the path and the expectation, and
//! enum-like strings are validated against the simulator's own
//! `parse` functions so a scenario can never name a strategy or
//! discipline the code cannot run.

use nca_core::runner::Strategy;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::report::Json;
use nca_traffic::{app_group, ArrivalKind};

use crate::schema::{
    FaultsSpec, Scenario, ScenarioKind, SchedulingSpec, SweepSpec, TelemetrySpec, TrafficSpec,
    WorkloadSpec, VERSION,
};

/// Parse a strategy name the way the CLI always has: case-insensitive,
/// `-`/`_` ignored (`rw-cp`, `RW_CP` and `RwCp` all work).
pub fn parse_strategy(s: &str) -> Option<Strategy> {
    let t = s.to_ascii_lowercase().replace(['-', '_'], "");
    Strategy::ALL
        .into_iter()
        .find(|st| st.label().to_ascii_lowercase().replace('-', "") == t)
}

/// An object being consumed key by key; [`Obj::done`] rejects anything
/// left over, which is what makes unknown keys hard errors.
struct Obj<'a> {
    path: String,
    members: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Obj<'a> {
    fn new(j: &'a Json, path: &str) -> Result<Obj<'a>, String> {
        match j {
            Json::Obj(members) => Ok(Obj {
                path: path.to_string(),
                members,
                used: vec![false; members.len()],
            }),
            _ => Err(format!("{path}: expected an object")),
        }
    }

    fn at(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    fn get(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.used[i] = true;
        Some(&self.members[i].1)
    }

    fn req(&mut self, key: &str) -> Result<&'a Json, String> {
        let path = self.at(key);
        self.get(key)
            .ok_or_else(|| format!("{path}: missing required key"))
    }

    fn done(self) -> Result<(), String> {
        for (i, (k, _)) in self.members.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("{}.{k}: unknown key", self.path));
            }
        }
        Ok(())
    }
}

fn num(j: &Json, path: &str) -> Result<f64, String> {
    match j {
        Json::Num(v) => Ok(*v),
        _ => Err(format!("{path}: expected a number")),
    }
}

/// A non-negative integer that survives the f64 round-trip exactly.
fn uint(j: &Json, path: &str) -> Result<u64, String> {
    let v = num(j, path)?;
    if v < 0.0 || v.fract() != 0.0 || v > (1u64 << 53) as f64 {
        return Err(format!("{path}: expected a non-negative integer"));
    }
    Ok(v as u64)
}

fn int(j: &Json, path: &str) -> Result<i64, String> {
    let v = num(j, path)?;
    if v.fract() != 0.0 || v.abs() > (1u64 << 53) as f64 {
        return Err(format!("{path}: expected an integer"));
    }
    Ok(v as i64)
}

fn string<'a>(j: &'a Json, path: &str) -> Result<&'a str, String> {
    match j {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{path}: expected a string")),
    }
}

fn arr<'a>(j: &'a Json, path: &str) -> Result<&'a [Json], String> {
    match j {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{path}: expected an array")),
    }
}

fn rate(j: &Json, path: &str) -> Result<f64, String> {
    let v = num(j, path)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{path}: expected a probability in [0, 1]"));
    }
    Ok(v)
}

fn workload(j: &Json, path: &str) -> Result<WorkloadSpec, String> {
    let mut o = Obj::new(j, path)?;
    let kind = string(o.req("kind")?, &o.at("kind"))?.to_string();
    let spec = match kind.as_str() {
        "vector" => WorkloadSpec::Vector {
            count: uint(o.req("count")?, &o.at("count"))? as u32,
            blocklen: uint(o.req("blocklen")?, &o.at("blocklen"))? as u32,
            stride: int(o.req("stride")?, &o.at("stride"))?,
        },
        "indexed" => WorkloadSpec::Indexed {
            blocks: uint(o.req("blocks")?, &o.at("blocks"))?,
            blocklen: uint(o.req("blocklen")?, &o.at("blocklen"))? as u32,
            seed: uint(o.req("seed")?, &o.at("seed"))?,
        },
        "app" => WorkloadSpec::App {
            label: string(o.req("label")?, &o.at("label"))?.to_string(),
        },
        "apps" => WorkloadSpec::Apps {
            max_kib: o
                .get("max_kib")
                .map(|j| uint(j, &o.at("max_kib")))
                .transpose()?,
        },
        other => {
            return Err(format!(
                "{}: unknown workload kind {other:?} (want vector, indexed, app or apps)",
                o.at("kind")
            ))
        }
    };
    o.done()?;
    Ok(spec)
}

fn faults(j: &Json, path: &str) -> Result<FaultsSpec, String> {
    let mut o = Obj::new(j, path)?;
    let d = FaultsSpec::default();
    let spec = FaultsSpec {
        drop: o
            .get("drop")
            .map(|j| rate(j, &o.at("drop")))
            .transpose()?
            .unwrap_or(d.drop),
        duplicate: o
            .get("duplicate")
            .map(|j| rate(j, &o.at("duplicate")))
            .transpose()?
            .unwrap_or(d.duplicate),
        corrupt: o
            .get("corrupt")
            .map(|j| rate(j, &o.at("corrupt")))
            .transpose()?
            .unwrap_or(d.corrupt),
        reorder_ns: o
            .get("reorder_ns")
            .map(|j| uint(j, &o.at("reorder_ns")))
            .transpose()?
            .unwrap_or(d.reorder_ns),
        seed: o
            .get("seed")
            .map(|j| uint(j, &o.at("seed")))
            .transpose()?
            .unwrap_or(d.seed),
    };
    o.done()?;
    Ok(spec)
}

fn scheduling(j: &Json, path: &str) -> Result<SchedulingSpec, String> {
    let mut o = Obj::new(j, path)?;
    let d = SchedulingSpec::default();
    let hpus = o
        .get("hpus")
        .map(|j| uint(j, &o.at("hpus")))
        .transpose()?
        .unwrap_or(d.hpus);
    if hpus == 0 {
        return Err(format!("{}: at least one HPU is required", o.at("hpus")));
    }
    let epsilon = o
        .get("epsilon")
        .map(|j| num(j, &o.at("epsilon")))
        .transpose()?
        .unwrap_or(d.epsilon);
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(format!(
            "{}: expected a non-negative number",
            o.at("epsilon")
        ));
    }
    let copies = o
        .get("copies")
        .map(|j| uint(j, &o.at("copies")))
        .transpose()?
        .unwrap_or(d.copies as u64);
    if copies == 0 {
        return Err(format!("{}: expected at least one copy", o.at("copies")));
    }
    let out_of_order = o
        .get("out_of_order")
        .map(|j| uint(j, &o.at("out_of_order")))
        .transpose()?;
    let spec = SchedulingSpec {
        hpus,
        epsilon,
        copies: copies as u32,
        out_of_order,
    };
    o.done()?;
    Ok(spec)
}

fn telemetry(j: &Json, path: &str) -> Result<TelemetrySpec, String> {
    let mut o = Obj::new(j, path)?;
    let spec = TelemetrySpec {
        ring_capacity: o
            .get("ring_capacity")
            .map(|j| uint(j, &o.at("ring_capacity")))
            .transpose()?,
        bucket_ps: o
            .get("bucket_ps")
            .map(|j| uint(j, &o.at("bucket_ps")))
            .transpose()?,
    };
    if spec.ring_capacity == Some(0) {
        return Err(format!(
            "{}: ring capacity must be nonzero",
            o.at("ring_capacity")
        ));
    }
    if spec.bucket_ps == Some(0) {
        return Err(format!(
            "{}: bucket width must be nonzero",
            o.at("bucket_ps")
        ));
    }
    o.done()?;
    Ok(spec)
}

fn traffic(j: &Json, path: &str) -> Result<TrafficSpec, String> {
    let mut o = Obj::new(j, path)?;
    let d = TrafficSpec::default();
    let apps = match o.get("apps") {
        Some(j) => {
            let items = arr(j, &o.at("apps"))?;
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let p = format!("{}[{i}]", o.at("apps"));
                let s = string(item, &p)?;
                if app_group(s).is_none() {
                    return Err(format!("{p}: unknown application mix {s:?}"));
                }
                out.push(s.to_string());
            }
            out
        }
        None => d.apps,
    };
    let loads = match o.get("loads") {
        Some(j) => {
            let items = arr(j, &o.at("loads"))?;
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let p = format!("{}[{i}]", o.at("loads"));
                let v = num(item, &p)?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{p}: expected a positive offered load"));
                }
                out.push(v);
            }
            out
        }
        None => d.loads,
    };
    let disciplines = match o.get("disciplines") {
        Some(j) => {
            let items = arr(j, &o.at("disciplines"))?;
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let p = format!("{}[{i}]", o.at("disciplines"));
                let s = string(item, &p)?;
                out.push(
                    QueueDiscipline::parse(s)
                        .ok_or_else(|| format!("{p}: unknown discipline {s:?}"))?,
                );
            }
            out
        }
        None => d.disciplines,
    };
    if apps.is_empty() || loads.is_empty() || disciplines.is_empty() {
        return Err(format!(
            "{path}: apps, loads and disciplines must each be non-empty"
        ));
    }
    let strategy = match o.get("strategy") {
        Some(j) => {
            let s = string(j, &o.at("strategy"))?;
            parse_strategy(s)
                .ok_or_else(|| format!("{}: unknown strategy {s:?}", o.at("strategy")))?
        }
        None => d.strategy,
    };
    let arrival = match o.get("arrival") {
        Some(j) => {
            let s = string(j, &o.at("arrival"))?;
            ArrivalKind::parse(s).ok_or_else(|| {
                format!(
                    "{}: unknown arrival process {s:?} (want poisson, lognormal or mixed)",
                    o.at("arrival")
                )
            })?
        }
        None => d.arrival,
    };
    let sigma = o
        .get("sigma")
        .map(|j| num(j, &o.at("sigma")))
        .transpose()?
        .unwrap_or(d.sigma);
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(format!(
            "{}: expected a positive shape parameter",
            o.at("sigma")
        ));
    }
    let tenants = o
        .get("tenants")
        .map(|j| uint(j, &o.at("tenants")))
        .transpose()?
        .unwrap_or(d.tenants);
    let horizon_us = o
        .get("horizon_us")
        .map(|j| uint(j, &o.at("horizon_us")))
        .transpose()?
        .unwrap_or(d.horizon_us);
    if tenants == 0 || horizon_us == 0 {
        return Err(format!(
            "{path}: tenants and horizon_us must both be nonzero"
        ));
    }
    let rss_entries = o
        .get("rss_entries")
        .map(|j| uint(j, &o.at("rss_entries")))
        .transpose()?
        .unwrap_or(d.rss_entries);
    if rss_entries == 0 {
        return Err(format!(
            "{}: expected at least one slot",
            o.at("rss_entries")
        ));
    }
    let spec = TrafficSpec {
        apps,
        loads,
        disciplines,
        tenants,
        strategy,
        arrival,
        sigma,
        flows_per_tenant: o
            .get("flows_per_tenant")
            .map(|j| uint(j, &o.at("flows_per_tenant")))
            .transpose()?
            .unwrap_or(d.flows_per_tenant),
        rss_entries,
        horizon_us,
        buffer_kib: o
            .get("buffer_kib")
            .map(|j| uint(j, &o.at("buffer_kib")))
            .transpose()?,
        seed: o
            .get("seed")
            .map(|j| uint(j, &o.at("seed")))
            .transpose()?
            .unwrap_or(d.seed),
    };
    o.done()?;
    Ok(spec)
}

fn sweep(j: &Json, path: &str) -> Result<SweepSpec, String> {
    let mut o = Obj::new(j, path)?;
    let d = SweepSpec::default();
    let seeds = o
        .get("seeds")
        .map(|j| uint(j, &o.at("seeds")))
        .transpose()?
        .unwrap_or(d.seeds);
    if seeds == 0 {
        return Err(format!("{}: expected at least one seed", o.at("seeds")));
    }
    let scales = match o.get("scales") {
        Some(j) => {
            let items = arr(j, &o.at("scales"))?;
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let p = format!("{}[{i}]", o.at("scales"));
                let v = num(item, &p)?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("{p}: expected a non-negative scale"));
                }
                out.push(v);
            }
            if out.is_empty() {
                return Err(format!("{}: expected at least one scale", o.at("scales")));
            }
            out
        }
        None => d.scales,
    };
    let spec = SweepSpec {
        seeds,
        seed0: o
            .get("seed0")
            .map(|j| uint(j, &o.at("seed0")))
            .transpose()?
            .unwrap_or(d.seed0),
        scales,
    };
    o.done()?;
    Ok(spec)
}

/// Apply one `path=value` override to the document tree. The value is
/// parsed as JSON; anything that is not valid JSON is taken as a string
/// (`traffic.arrival=mixed`). Missing objects along the path are
/// created, so the strict parser then judges an override exactly like a
/// key written in the file.
fn apply_set(doc: &mut Json, set: &str) -> Result<(), String> {
    let bad = |why: String| format!("--set {set}: {why}");
    let (path, value) = set
        .split_once('=')
        .ok_or_else(|| bad("expected path=value".to_string()))?;
    let keys: Vec<&str> = path.split('.').collect();
    if keys.iter().any(|k| k.is_empty()) {
        return Err(bad(format!("empty key in path {path:?}")));
    }
    let mut node = doc;
    for (i, key) in keys.iter().enumerate() {
        let Json::Obj(members) = node else {
            let parent: Vec<&str> = std::iter::once("scenario")
                .chain(keys[..i].iter().copied())
                .collect();
            return Err(bad(format!("{} is not an object", parent.join("."))));
        };
        let at = match members.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                members.push((key.to_string(), Json::Obj(Vec::new())));
                members.len() - 1
            }
        };
        node = &mut members[at].1;
    }
    *node = Json::parse(value).unwrap_or_else(|_| Json::Str(value.to_string()));
    Ok(())
}

/// Parse a scenario document. Errors name the offending JSON path.
pub fn parse_scenario(text: &str) -> Result<Scenario, String> {
    parse_scenario_with(text, &[])
}

/// [`parse_scenario`] after applying `ncmt_cli run --set path=value`
/// overrides, in order, to the document tree (`path` is dotted from the
/// document root, e.g. `workload.count`).
pub fn parse_scenario_with(text: &str, sets: &[&str]) -> Result<Scenario, String> {
    let mut doc = Json::parse(text).map_err(|e| format!("scenario: {e}"))?;
    for set in sets {
        apply_set(&mut doc, set)?;
    }
    let mut o = Obj::new(&doc, "scenario")?;
    let name = string(o.req("name")?, &o.at("name"))?.to_string();
    let version = uint(o.req("version")?, &o.at("version"))?;
    if version != VERSION {
        return Err(format!(
            "{}: unsupported schema version {version} (this build reads version {VERSION})",
            o.at("version")
        ));
    }
    let kind_s = string(o.req("kind")?, &o.at("kind"))?;
    let kind = ScenarioKind::parse(kind_s).ok_or_else(|| {
        let all: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.label()).collect();
        format!(
            "{}: unknown scenario kind {kind_s:?} (want one of {})",
            o.at("kind"),
            all.join(", ")
        )
    })?;
    let scn = Scenario {
        name,
        kind,
        workload: o
            .get("workload")
            .map(|j| workload(j, &o.at("workload")))
            .transpose()?,
        faults: o
            .get("faults")
            .map(|j| faults(j, &o.at("faults")))
            .transpose()?
            .unwrap_or_default(),
        scheduling: o
            .get("scheduling")
            .map(|j| scheduling(j, &o.at("scheduling")))
            .transpose()?
            .unwrap_or_default(),
        telemetry: o
            .get("telemetry")
            .map(|j| telemetry(j, &o.at("telemetry")))
            .transpose()?
            .unwrap_or_default(),
        traffic: o
            .get("traffic")
            .map(|j| traffic(j, &o.at("traffic")))
            .transpose()?,
        sweep: o
            .get("sweep")
            .map(|j| sweep(j, &o.at("sweep")))
            .transpose()?
            .unwrap_or_default(),
    };
    o.done()?;
    Ok(scn)
}
