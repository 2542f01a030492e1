//! Shared experiment options.

use crate::parallel::default_threads;

/// Options common to every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Scale trial counts and sweeps down ~10× (CI / smoke mode).
    pub quick: bool,
    /// Master seed; every number in a report is a pure function of it.
    pub seed: u64,
    /// Worker threads (0 = auto). One `--threads` flag governs **both**
    /// parallelism layers — trials across workers
    /// ([`ExpOptions::threads_for`]) and shards within a trial
    /// ([`ExpOptions::intra_threads`]) — instead of each call site
    /// picking its own count.
    pub threads: usize,
    /// Emit a run-state checkpoint every `k` rounds into
    /// [`ExpOptions::checkpoint_dir`] (0 = off). Honored by the
    /// checkpoint-aware experiments (E16).
    pub checkpoint_every: usize,
    /// Directory receiving emitted checkpoints (`&'static` so the
    /// options stay `Copy`; the CLI leaks its one flag value).
    pub checkpoint_dir: Option<&'static str>,
    /// Directory to resume from: checkpoint-aware experiments look for
    /// their per-row checkpoint files here and resume instead of
    /// running from round 0 — bit-identical by the resume-equivalence
    /// corpus (`tests/checkpoint_resume.rs`).
    pub resume_from: Option<&'static str>,
    /// Concurrent instance count for the instance-plane experiments
    /// (E17). `0` = use the experiment's own sweep; any other value
    /// pins the sweep to exactly that count.
    pub instances: usize,
    /// Instance kind for the E17 sweep: `"rumor"` (default) or
    /// `"consensus"` (`&'static` so the options stay `Copy`).
    pub instance_kind: Option<&'static str>,
    /// Collect and report the staged engine's per-stage wall-clock
    /// breakdown (plan / exchange / apply). Honored by E16, which emits
    /// an extra stage-time table. Observability only — digests are
    /// unaffected.
    pub stage_times: bool,
    /// Override an experiment's `n` sweep (comma-separated, e.g.
    /// `"100000,10000000"`; `&'static` so the options stay `Copy`).
    /// Honored by E16 — this is how the 10⁷ landmark row is launched
    /// without dragging the default sweep along.
    pub sizes: Option<&'static str>,
    /// Override an experiment's shard-count sweep (comma-separated).
    /// Honored by E16; useful to pin `"1"` on single-core boxes where
    /// sweeping shard counts only re-measures the same core.
    pub shards: Option<&'static str>,
    /// Record the op log for the audit-bearing experiments (default
    /// on; `--no-oplog` clears it). Digests and `Metrics` are pinned
    /// identical with it off — only the good-execution audit goes
    /// missing, so an experiment that needs the audit degrades to
    /// reporting "off" instead of panicking.
    pub oplog: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            seed: 0x5EED_2017,
            threads: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
            instances: 0,
            instance_kind: None,
            stage_times: false,
            sizes: None,
            shards: None,
            oplog: true,
        }
    }
}

impl ExpOptions {
    /// Quick-mode preset.
    pub fn quick() -> Self {
        ExpOptions {
            quick: true,
            ..Default::default()
        }
    }

    /// Trial count: `full` normally, ~`full/8` (min 10) in quick mode.
    pub fn trials(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(10)
        } else {
            full
        }
    }

    /// Effective worker-thread count for `trials` tasks.
    pub fn threads_for(&self, trials: usize) -> usize {
        if self.threads == 0 {
            default_threads(trials)
        } else {
            self.threads.min(trials.max(1))
        }
    }

    /// Worker threads for **intra-trial** sharding (the staged engine's
    /// plan/apply shards): the explicit `--threads` value, or available
    /// parallelism when `0`/unset. Unlike [`ExpOptions::threads_for`]
    /// there is no trial-count cap — one giant trial wants every core.
    pub fn intra_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Instance-count sweep for the plane experiments: the experiment's
    /// own `default` sweep, unless `--instances` pinned a single count.
    pub fn instance_sweep(&self, default: &[usize]) -> Vec<usize> {
        if self.instances == 0 {
            default.to_vec()
        } else {
            vec![self.instances]
        }
    }

    /// Parse a `--sizes`/`--shards` comma list (underscores allowed as
    /// digit separators: `10_000_000`). Every entry must parse and be at
    /// least `min`; an empty list or entry does not parse. The error
    /// names the bad entry, so a CLI typo fails loudly instead of
    /// silently running the default sweep.
    pub fn parse_list(spec: &str, min: usize) -> Result<Vec<usize>, String> {
        spec.split(',')
            .map(|s| match s.trim().replace('_', "").parse() {
                Ok(v) if v >= min => Ok(v),
                Ok(v) => Err(format!("entry {v} in list {spec:?} is below {min}")),
                Err(_) => Err(format!("unparsable entry {s:?} in list {spec:?}")),
            })
            .collect()
    }

    /// Largest `n` of a sweep: caps `full_max` in quick mode.
    pub fn cap_n(&self, full_max: usize) -> usize {
        if self.quick {
            full_max.min(512)
        } else {
            full_max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scales_down() {
        let q = ExpOptions::quick();
        assert_eq!(q.trials(800), 100);
        assert_eq!(q.trials(40), 10);
        assert_eq!(q.cap_n(4096), 512);
        let f = ExpOptions::default();
        assert_eq!(f.trials(800), 800);
        assert_eq!(f.cap_n(4096), 4096);
    }

    #[test]
    fn explicit_threads_respected() {
        let o = ExpOptions {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(o.threads_for(100), 3);
        assert_eq!(o.threads_for(2), 2);
    }

    #[test]
    fn parse_list_rejects_junk_empty_and_small_entries() {
        assert_eq!(ExpOptions::parse_list("512, 4_096", 2), Ok(vec![512, 4096]));
        assert_eq!(ExpOptions::parse_list("1,2", 1), Ok(vec![1, 2]));
        assert_eq!(ExpOptions::parse_list("0", 0), Ok(vec![0]));
        for (spec, min) in [
            ("12x", 2),
            ("", 1),
            ("1,,2", 1),
            ("-3", 0),
            ("1", 2),
            ("4,0", 1),
        ] {
            assert!(
                ExpOptions::parse_list(spec, min).is_err(),
                "{spec:?} (min {min}) accepted"
            );
        }
    }
}
