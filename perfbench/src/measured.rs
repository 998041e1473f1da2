//! What every case measures and checks, whichever runner produced it.

/// The shared part of a case's result.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// `Cluster::new` reference seconds (sweep: summed over the window).
    pub new_s: f64,
    /// `Cluster::settle` reference seconds (sweep: summed).
    pub settle_s: f64,
    /// Serve reference seconds: the closed loop, or the sweep's summed
    /// `try_run_scenario` calls.
    pub serve_s: f64,
    /// Whole case reference seconds: setup, serve and report.
    pub round_s: f64,
    /// Thread CPU seconds of serving, for the log.
    pub serve_cpu_s: f64,
    /// Wall seconds of serving, reference slices included, for the log.
    pub serve_wall_s: f64,
    /// Heap high-water mark over the serve loop (sweep: the pass).
    pub peak_heap: usize,
    /// Clusters built and served (1 per closed-loop case).
    pub cases: u64,
    /// Client ops issued.
    pub issued: u64,
    /// Client ops answered without error.
    pub ok: u64,
    /// Ops or cases that broke a check.
    pub bad: u64,
    /// The first few check failures, for the log.
    pub problems: Vec<String>,
    /// Digest of the case's virtual outputs.
    pub digest: u64,
}

impl Measured {
    /// Records a broken check.
    pub fn fail(&mut self, msg: String) {
        self.bad += 1;
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Resolved ops per reference second of serving.
    pub fn ops_per_ref_s(&self) -> f64 {
        self.issued as f64 / self.serve_s
    }

    /// Whole cases per reference second.
    pub fn cases_per_ref_s(&self) -> f64 {
        self.cases as f64 / self.round_s
    }

    /// Setup reference seconds.
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.settle_s
    }

    /// Heap high-water mark in MiB.
    pub fn peak_heap_mib(&self) -> f64 {
        self.peak_heap as f64 / (1024.0 * 1024.0)
    }

    /// Ops answered without error over ops issued.
    pub fn served_frac(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.ok as f64 / self.issued as f64
        }
    }
}
