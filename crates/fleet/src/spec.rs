//! `FleetSpec`: a week-long campaign definition parsed from a TOML
//! subset.
//!
//! A spec describes everything a fleet run needs: which topology to
//! drive, the per-site user populations with their cycle parameters,
//! and a schedule of events (flash crowds, link/switch faults). The
//! parser is hand-rolled — the build environment has no registry access
//! — and covers the subset real specs use: `[section]` /
//! `[[array-of-tables]]` headers, `key = value` with integers, floats,
//! booleans, quoted strings, and flat arrays, plus `#` comments. Errors
//! carry 1-based line numbers.
//!
//! ```toml
//! [fleet]
//! name = "snet-week"
//! topology = "snet"          # or "lnet:8" for an 8-site L-Net slice
//! seed = 42
//! intervals = 2016           # one week of 5-minute TE intervals
//! interval-secs = 300.0
//! protection = [1, 1, 0]
//! tunnels-per-flow = 3
//! mean-total = 100.0         # mean network demand, capacity units
//! users-per-unit = 50000.0   # simulated users behind one demand unit
//! keep-fraction = 0.9
//!
//! [cycles]
//! diurnal-amplitude = 0.4
//! weekly-weekend-dip = 0.25
//! peak-hour = 20.0
//! noise-sigma = 0.03
//!
//! [[site]]
//! name = "nyc"
//! population = 2.5e6
//! growth-per-week = 0.01
//! utc-offset = -5.0
//!
//! [[event]]
//! kind = "flash-crowd"
//! site = "nyc"
//! start = 300
//! duration = 24
//! magnitude = 3.0
//!
//! [[event]]
//! kind = "link-down"
//! link = 14
//! at = 500
//! ```

use std::collections::BTreeMap;

use ffc_topo::LNetConfig;

/// Which topology generator a fleet run drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// The built-in 12-site S-Net (B4) topology.
    Snet,
    /// A seeded L-Net-style WAN with this many sites.
    Lnet(usize),
}

/// Diurnal / weekly cycle parameters shared by every site.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleSpec {
    /// Peak-to-mean swing of the diurnal sine (0 = flat).
    pub diurnal_amplitude: f64,
    /// Fractional demand dip on Saturday/Sunday.
    pub weekly_weekend_dip: f64,
    /// Local hour of the diurnal peak.
    pub peak_hour: f64,
    /// σ of the per-site, per-interval log-normal noise.
    pub noise_sigma: f64,
}

impl Default for CycleSpec {
    fn default() -> Self {
        CycleSpec {
            diurnal_amplitude: 0.4,
            weekly_weekend_dip: 0.25,
            peak_hour: 20.0,
            noise_sigma: 0.03,
        }
    }
}

/// One site's user population and trend.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site name (used by `site = "…"` event references).
    pub name: String,
    /// Mean user population.
    pub population: f64,
    /// Compounding weekly growth rate (regional trend; may be
    /// negative).
    pub growth_per_week: f64,
    /// UTC offset in hours — staggers the diurnal cycle across regions.
    pub utc_offset_hours: f64,
}

/// One scheduled campaign event.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A flash crowd at one site: its activity ramps linearly up to
    /// `magnitude ×` over the first half of `duration` intervals and
    /// back down over the second half.
    FlashCrowd {
        /// Site index.
        site: usize,
        /// First affected interval.
        start: usize,
        /// Length in intervals.
        duration: usize,
        /// Peak activity multiplier.
        magnitude: f64,
    },
    /// A directed link fails at this interval.
    LinkDown {
        /// Raw link index.
        link: usize,
        /// Interval.
        at: usize,
    },
    /// A directed link is repaired.
    LinkUp {
        /// Raw link index.
        link: usize,
        /// Interval.
        at: usize,
    },
    /// A switch fails.
    SwitchDown {
        /// Raw switch index.
        switch: usize,
        /// Interval.
        at: usize,
    },
    /// A switch is repaired.
    SwitchUp {
        /// Raw switch index.
        switch: usize,
        /// Interval.
        at: usize,
    },
}

/// A complete fleet campaign definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Campaign name (informational).
    pub name: String,
    /// Topology to drive.
    pub topology: TopologySpec,
    /// Master seed: populations (when sites are synthesized), noise,
    /// the controller's rollout sampling — everything derives from it.
    pub seed: u64,
    /// Number of TE intervals.
    pub intervals: usize,
    /// TE interval length in seconds.
    pub interval_secs: f64,
    /// Protection level `(kc, ke, kv)`.
    pub protection: (usize, usize, usize),
    /// Tunnels laid out per flow.
    pub tunnels_per_flow: usize,
    /// Mean total network demand, in capacity units.
    pub mean_total: f64,
    /// Users represented by one demand unit (reporting only).
    pub users_per_unit: f64,
    /// Keep the largest site pairs covering this traffic fraction.
    pub keep_fraction: f64,
    /// Fraction of each demand classified (high, medium); the rest is
    /// low priority. `(1, 0)` keeps everything high priority.
    pub priority_split: (f64, f64),
    /// Cycle parameters.
    pub cycles: CycleSpec,
    /// Per-site populations. Empty = synthesize log-normal populations
    /// from the seed for every topology site.
    pub sites: Vec<SiteSpec>,
    /// Scheduled events.
    pub events: Vec<FleetEvent>,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            name: "fleet".into(),
            topology: TopologySpec::Snet,
            seed: 42,
            intervals: 2016,
            interval_secs: 300.0,
            protection: (1, 1, 0),
            tunnels_per_flow: 3,
            mean_total: 100.0,
            users_per_unit: 50_000.0,
            keep_fraction: 0.9,
            priority_split: (1.0, 0.0),
            cycles: CycleSpec::default(),
            sites: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as usize),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn parse_value(raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("empty value".into());
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{raw}`"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in `{raw}`"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array `{raw}`"))?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part)?);
        }
        return Ok(Value::Array(items));
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    let f: f64 = raw
        .parse()
        .map_err(|_| format!("cannot parse value `{raw}`"))?;
    if !f.is_finite() {
        return Err(format!("non-finite value `{raw}`"));
    }
    Ok(Value::Float(f))
}

/// One `key = value` table with the line number of each key (for
/// errors pointing at the offending assignment).
#[derive(Debug, Clone, Default)]
struct Table {
    header_line: usize,
    entries: BTreeMap<String, (usize, Value)>,
}

impl Table {
    fn take(&self, key: &str) -> Option<&(usize, Value)> {
        self.entries.get(key)
    }

    fn require(&self, key: &str) -> Result<&(usize, Value), String> {
        self.take(key)
            .ok_or_else(|| format!("line {}: missing key `{key}`", self.header_line))
    }
}

fn f64_key(t: &Table, key: &str, default: f64) -> Result<f64, String> {
    match t.take(key) {
        Some((line, v)) => v
            .as_f64()
            .ok_or_else(|| format!("line {line}: `{key}` wants a number")),
        None => Ok(default),
    }
}

fn usize_key(t: &Table, key: &str, default: usize) -> Result<usize, String> {
    match t.take(key) {
        Some((line, v)) => v
            .as_usize()
            .ok_or_else(|| format!("line {line}: `{key}` wants a non-negative integer")),
        None => Ok(default),
    }
}

/// `Ok` when `ok`; otherwise the refusal of `key`'s value, at its
/// assignment. (Defaults are in range, so a refused value was assigned.)
fn in_range(t: &Table, key: &str, ok: bool, must_be: &str) -> Result<(), String> {
    if ok {
        return Ok(());
    }
    let line = t.take(key).map_or(t.header_line, |(line, _)| *line);
    Err(format!("line {line}: `{key}` must be {must_be}"))
}

/// Refuses any key of `t` outside `known`, at its line.
fn known_keys(t: &Table, table: &str, known: &[&str]) -> Result<(), String> {
    match t
        .entries
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, (line, _))) => Err(format!("line {line}: unknown {table} key `{key}`")),
        None => Ok(()),
    }
}

impl FleetSpec {
    /// Parses a spec from its TOML text. Unknown sections and keys are
    /// errors — a typo'd cycle parameter must not silently fall back to
    /// a default.
    pub fn parse(text: &str) -> Result<FleetSpec, String> {
        // Pass 1: split into tables.
        let mut fleet = Table::default();
        let mut cycles = Table::default();
        let mut site_tables: Vec<Table> = Vec::new();
        let mut event_tables: Vec<Table> = Vec::new();
        #[derive(PartialEq, Clone, Copy)]
        enum Cur {
            None,
            Fleet,
            Cycles,
            Site,
            Event,
        }
        let mut cur = Cur::None;
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            // Strip a trailing comment, unless the `#` sits inside a
            // quoted string (even quote count before it = outside).
            let line = match line.find('#') {
                Some(p) if line[..p].matches('"').count() % 2 == 0 => &line[..p],
                _ => line,
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(h) = trimmed
                .strip_prefix("[[")
                .and_then(|s| s.strip_suffix("]]"))
            {
                match h.trim() {
                    "site" => {
                        site_tables.push(Table {
                            header_line: lineno,
                            ..Table::default()
                        });
                        cur = Cur::Site;
                    }
                    "event" => {
                        event_tables.push(Table {
                            header_line: lineno,
                            ..Table::default()
                        });
                        cur = Cur::Event;
                    }
                    other => return Err(format!("line {lineno}: unknown table `[[{other}]]`")),
                }
                continue;
            }
            if let Some(h) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                match h.trim() {
                    "fleet" => {
                        fleet.header_line = lineno;
                        cur = Cur::Fleet;
                    }
                    "cycles" => {
                        cycles.header_line = lineno;
                        cur = Cur::Cycles;
                    }
                    other => return Err(format!("line {lineno}: unknown section `[{other}]`")),
                }
                continue;
            }
            let (key, raw) = trimmed
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim().to_string();
            let value = parse_value(raw).map_err(|e| format!("line {lineno}: {e}"))?;
            let table = match cur {
                Cur::Fleet => &mut fleet,
                Cur::Cycles => &mut cycles,
                Cur::Site => site_tables.last_mut().ok_or("unreachable: site table")?,
                Cur::Event => event_tables.last_mut().ok_or("unreachable: event table")?,
                Cur::None => {
                    return Err(format!(
                        "line {lineno}: `{key}` outside any section (start with `[fleet]`)"
                    ))
                }
            };
            if table.entries.insert(key.clone(), (lineno, value)).is_some() {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
            table.header_line = table.header_line.max(1);
        }

        // Pass 2: interpret.
        let mut spec = FleetSpec::default();
        let known_fleet = [
            "name",
            "topology",
            "seed",
            "intervals",
            "interval-secs",
            "protection",
            "tunnels-per-flow",
            "mean-total",
            "users-per-unit",
            "keep-fraction",
            "priority-split",
        ];
        known_keys(&fleet, "[fleet]", &known_fleet)?;
        if let Some((_, v)) = fleet.take("name") {
            spec.name = v.as_str().unwrap_or("fleet").to_string();
        }
        if let Some((line, v)) = fleet.take("topology") {
            let s = v
                .as_str()
                .ok_or_else(|| format!("line {line}: `topology` wants a string"))?;
            spec.topology = if s == "snet" {
                TopologySpec::Snet
            } else if let Some(n) = s.strip_prefix("lnet:") {
                let sites: usize = n
                    .parse()
                    .map_err(|_| format!("line {line}: bad lnet site count `{n}`"))?;
                if sites < 3 {
                    return Err(format!("line {line}: lnet wants at least 3 sites"));
                }
                let most = LNetConfig::full().sites;
                if sites > most {
                    return Err(format!("line {line}: lnet wants at most {most} sites"));
                }
                TopologySpec::Lnet(sites)
            } else {
                return Err(format!(
                    "line {line}: unknown topology `{s}` (snet or lnet:<sites>)"
                ));
            };
        }
        if let Some((line, v)) = fleet.take("seed") {
            spec.seed = match v {
                Value::Int(i) if *i >= 0 => *i as u64,
                _ => return Err(format!("line {line}: `seed` wants a non-negative integer")),
            };
        }
        spec.intervals = usize_key(&fleet, "intervals", spec.intervals)?;
        spec.interval_secs = f64_key(&fleet, "interval-secs", spec.interval_secs)?;
        spec.tunnels_per_flow = usize_key(&fleet, "tunnels-per-flow", spec.tunnels_per_flow)?;
        spec.mean_total = f64_key(&fleet, "mean-total", spec.mean_total)?;
        spec.users_per_unit = f64_key(&fleet, "users-per-unit", spec.users_per_unit)?;
        spec.keep_fraction = f64_key(&fleet, "keep-fraction", spec.keep_fraction)?;
        let kept = spec.keep_fraction;
        for (key, ok, must_be) in [
            ("intervals", spec.intervals > 0, "positive"),
            ("interval-secs", spec.interval_secs > 0.0, "positive"),
            ("tunnels-per-flow", spec.tunnels_per_flow > 0, "positive"),
            ("mean-total", spec.mean_total >= 0.0, "non-negative"),
            ("users-per-unit", spec.users_per_unit >= 0.0, "non-negative"),
            ("keep-fraction", kept > 0.0 && kept <= 1.0, "in (0, 1]"),
        ] {
            in_range(&fleet, key, ok, must_be)?;
        }
        if let Some((line, v)) = fleet.take("protection") {
            let parts = match v {
                Value::Array(a) if a.len() == 3 => a,
                _ => return Err(format!("line {line}: `protection` wants `[kc, ke, kv]`")),
            };
            let mut k = [0usize; 3];
            for (i, p) in parts.iter().enumerate() {
                k[i] = p
                    .as_usize()
                    .ok_or_else(|| format!("line {line}: protection entries are integers"))?;
            }
            spec.protection = (k[0], k[1], k[2]);
        }
        if let Some((line, v)) = fleet.take("priority-split") {
            let parts = match v {
                Value::Array(a) if a.len() == 2 => a,
                _ => {
                    return Err(format!(
                        "line {line}: `priority-split` wants `[high, medium]`"
                    ))
                }
            };
            let hi = parts[0]
                .as_f64()
                .ok_or_else(|| format!("line {line}: split entries are numbers"))?;
            let med = parts[1]
                .as_f64()
                .ok_or_else(|| format!("line {line}: split entries are numbers"))?;
            if hi < 0.0 || med < 0.0 || hi + med > 1.0 {
                return Err(format!(
                    "line {line}: split fractions must be ≥0 and sum ≤1"
                ));
            }
            spec.priority_split = (hi, med);
        }

        let known_cycles = [
            "diurnal-amplitude",
            "weekly-weekend-dip",
            "peak-hour",
            "noise-sigma",
        ];
        known_keys(&cycles, "[cycles]", &known_cycles)?;
        spec.cycles.diurnal_amplitude =
            f64_key(&cycles, "diurnal-amplitude", spec.cycles.diurnal_amplitude)?;
        spec.cycles.weekly_weekend_dip = f64_key(
            &cycles,
            "weekly-weekend-dip",
            spec.cycles.weekly_weekend_dip,
        )?;
        spec.cycles.peak_hour = f64_key(&cycles, "peak-hour", spec.cycles.peak_hour)?;
        spec.cycles.noise_sigma = f64_key(&cycles, "noise-sigma", spec.cycles.noise_sigma)?;
        for (key, v) in [
            ("diurnal-amplitude", spec.cycles.diurnal_amplitude),
            ("weekly-weekend-dip", spec.cycles.weekly_weekend_dip),
        ] {
            in_range(&cycles, key, (0.0..1.0).contains(&v), "in [0, 1)")?;
        }

        for t in &site_tables {
            let known_site = ["name", "population", "growth-per-week", "utc-offset"];
            known_keys(t, "[[site]]", &known_site)?;
            let (line, name) = t.require("name")?;
            let name = name
                .as_str()
                .ok_or_else(|| format!("line {line}: site `name` wants a string"))?
                .to_string();
            let population = f64_key(t, "population", 1.0e6)?;
            if population <= 0.0 {
                return Err(format!(
                    "line {}: site `{name}` population must be positive",
                    t.header_line
                ));
            }
            spec.sites.push(SiteSpec {
                name,
                population,
                growth_per_week: f64_key(t, "growth-per-week", 0.0)?,
                utc_offset_hours: f64_key(t, "utc-offset", 0.0)?,
            });
        }

        for t in &event_tables {
            let (kline, kind) = t.require("kind")?;
            let kind = kind
                .as_str()
                .ok_or_else(|| format!("line {kline}: event `kind` wants a string"))?;
            let at = |key: &str| -> Result<usize, String> {
                let (line, v) = t.require(key)?;
                v.as_usize()
                    .ok_or_else(|| format!("line {line}: `{key}` wants a non-negative integer"))
            };
            let keys = |known: &[&str]| known_keys(t, "[[event]]", known);
            // A fault event: the failing element's index and the interval.
            let fault = |element: &str| -> Result<(usize, usize), String> {
                keys(&["kind", element, "at"])?;
                Ok((at(element)?, at("at")?))
            };
            let ev = match kind {
                "flash-crowd" => {
                    keys(&["kind", "site", "start", "duration", "magnitude"])?;
                    let (sline, site) = t.require("site")?;
                    let site = match site {
                        Value::Int(i) if *i >= 0 => *i as usize,
                        Value::Str(s) => {
                            spec.sites
                                .iter()
                                .position(|x| x.name == *s)
                                .ok_or_else(|| {
                                    format!("line {sline}: unknown site `{s}` (define it first)")
                                })?
                        }
                        _ => return Err(format!("line {sline}: `site` wants an index or name")),
                    };
                    FleetEvent::FlashCrowd {
                        site,
                        start: at("start")?,
                        duration: at("duration")?.max(1),
                        magnitude: f64_key(t, "magnitude", 2.0)?,
                    }
                }
                "link-down" => {
                    let (link, at) = fault("link")?;
                    FleetEvent::LinkDown { link, at }
                }
                "link-up" => {
                    let (link, at) = fault("link")?;
                    FleetEvent::LinkUp { link, at }
                }
                "switch-down" => {
                    let (switch, at) = fault("switch")?;
                    FleetEvent::SwitchDown { switch, at }
                }
                "switch-up" => {
                    let (switch, at) = fault("switch")?;
                    FleetEvent::SwitchUp { switch, at }
                }
                other => {
                    return Err(format!(
                        "line {kline}: unknown event kind `{other}` \
                         (flash-crowd, link-down, link-up, switch-down, switch-up)"
                    ))
                }
            };
            spec.events.push(ev);
        }

        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a mini campaign
[fleet]
name = "mini"
topology = "lnet:4"
seed = 7
intervals = 12
interval-secs = 300.0
protection = [0, 1, 0]
tunnels-per-flow = 2
mean-total = 40.0
keep-fraction = 1.0

[cycles]
diurnal-amplitude = 0.3
peak-hour = 19.0
noise-sigma = 0.0

[[site]]
name = "alpha"
population = 1.5e6
utc-offset = -5.0

[[site]]
name = "beta"
population = 0.5e6
growth-per-week = 0.02
utc-offset = 1.0

[[event]]
kind = "flash-crowd"
site = "beta"
start = 4
duration = 4
magnitude = 2.5

[[event]]
kind = "link-down"
link = 3
at = 6
"#;

    #[test]
    fn parses_the_sample() {
        let spec = FleetSpec::parse(SAMPLE).expect("parse");
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.topology, TopologySpec::Lnet(4));
        assert_eq!(spec.intervals, 12);
        assert_eq!(spec.protection, (0, 1, 0));
        assert_eq!(spec.sites.len(), 2);
        assert_eq!(spec.sites[1].name, "beta");
        assert!((spec.sites[1].growth_per_week - 0.02).abs() < 1e-12);
        assert_eq!(spec.events.len(), 2);
        match &spec.events[0] {
            FleetEvent::FlashCrowd {
                site,
                start,
                duration,
                magnitude,
            } => {
                assert_eq!((*site, *start, *duration), (1, 4, 4));
                assert!((magnitude - 2.5).abs() < 1e-12);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let spec = FleetSpec::parse("[fleet]\nname = \"x\"\n").expect("parse");
        assert_eq!(spec.topology, TopologySpec::Snet);
        assert_eq!(spec.intervals, 2016);
        assert!(spec.sites.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[fleet]\ntopology = \"mars\"\n";
        let err = FleetSpec::parse(bad).unwrap_err();
        assert!(err.contains("line 2") && err.contains("mars"), "{err}");

        // The site count is bounded on both sides: the paper-scale L-Net
        // (50 sites) is the largest the generator is built for.
        for (sites, what) in [("2", "at least 3"), ("51", "at most 50")] {
            let bad = format!("[fleet]\ntopology = \"lnet:{sites}\"\n");
            let err = FleetSpec::parse(&bad).unwrap_err();
            assert_eq!(err, format!("line 2: lnet wants {what} sites"));
        }
        let ok = FleetSpec::parse("[fleet]\ntopology = \"lnet:50\"\n").unwrap();
        assert_eq!(ok.topology, TopologySpec::Lnet(50));

        let bad = "[fleet]\nseed = -4\n";
        let err = FleetSpec::parse(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        let bad = "[fleeet]\n";
        assert!(FleetSpec::parse(bad).unwrap_err().contains("line 1"));

        let bad = "[fleet]\nfrobnicate = 3\n";
        let err = FleetSpec::parse(bad).unwrap_err();
        assert!(err.contains("unknown [fleet] key"), "{err}");

        let bad = "[fleet]\nname = \"x\"\n[[event]]\nkind = \"flash-crowd\"\nsite = \"nope\"\nstart = 1\nduration = 1\n";
        let err = FleetSpec::parse(bad).unwrap_err();
        assert!(err.contains("unknown site `nope`"), "{err}");

        // Out-of-range values and stray event keys are refused where
        // they are assigned (line 3 of each).
        for (assignment, what) in [
            ("intervals = 0", "`intervals` must be positive"),
            ("interval-secs = -300.0", "`interval-secs` must be positive"),
            ("interval-secs = 0.0", "`interval-secs` must be positive"),
            (
                "tunnels-per-flow = 0",
                "`tunnels-per-flow` must be positive",
            ),
            ("mean-total = -40.0", "`mean-total` must be non-negative"),
            (
                "users-per-unit = -1",
                "`users-per-unit` must be non-negative",
            ),
            ("keep-fraction = 7.0", "`keep-fraction` must be in (0, 1]"),
            ("keep-fraction = 0", "`keep-fraction` must be in (0, 1]"),
        ] {
            let bad = format!("[fleet]\nseed = 1\n{assignment}\n");
            assert_eq!(
                FleetSpec::parse(&bad).unwrap_err(),
                format!("line 3: {what}")
            );
        }
        for (assignment, what) in [
            (
                "diurnal-amplitude = 1.0",
                "`diurnal-amplitude` must be in [0, 1)",
            ),
            (
                "weekly-weekend-dip = -0.1",
                "`weekly-weekend-dip` must be in [0, 1)",
            ),
        ] {
            let bad = format!("[fleet]\n[cycles]\n{assignment}\n");
            assert_eq!(
                FleetSpec::parse(&bad).unwrap_err(),
                format!("line 3: {what}")
            );
        }
        for (kind, stray) in [("link-down", "lnik = 3"), ("flash-crowd", "at = 3")] {
            let bad = format!("[[event]]\nkind = \"{kind}\"\n{stray}\n");
            let err = FleetSpec::parse(&bad).unwrap_err();
            assert!(err.starts_with("line 3: unknown [[event]] key"), "{err}");
        }
    }

    #[test]
    fn key_outside_section_is_rejected() {
        let err = FleetSpec::parse("seed = 3\n").unwrap_err();
        assert!(err.contains("outside any section"), "{err}");
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let err = FleetSpec::parse("[fleet]\nseed = 1\nseed = 2\n").unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }
}
