//! The fixed phase → layer table and the per-layer host-time split.
//!
//! Layers are the repository's modules. Host self time comes from the
//! `fld_sim::prof` engine phases (`start`, `pop`, `dispatch.<Event>`,
//! `sample.probes`, `sample.audit`, `finish`, `export`); every phase a
//! traced run shows must appear in [`layer_of`], or the run fails its
//! correctness check, so a new event kind cannot fall out of the split.
//!
//! `pcie` (`fld_pcie`) has no phase of its own: its link and load models
//! run inside the FLD and NIC handlers. It is reported through counts
//! and simulated stage times only.

use fld_sim::prof::Profile;

/// Layers with host time, in table order.
pub const HOST_LAYERS: &[&str] = &[
    "queue", "engine", "audit", "probe", "health", "client", "link", "nic", "hw", "accel",
];

/// The layer an engine phase's self time is charged to, or `None` for a
/// phase the table does not know.
pub fn layer_of(phase: &str) -> Option<&'static str> {
    Some(match phase {
        // fld_sim::queue — the event calendar.
        "pop" => "queue",
        // fld_sim::engine — run start-up and metrics export.
        "start" | "export" => "engine",
        // fld_sim::audit + counters — per-tick and end-of-run audits.
        "sample.audit" | "finish" => "audit",
        // fld_sim::probe — flight-recorder sampling.
        "sample.probes" => "probe",
        // fld_sim::health + fault — scheduled faults and the watchdog.
        "dispatch.FaultStart" | "dispatch.FaultEnd" | "dispatch.HealthTick" => "health",
        // fld_workloads, fld_accel::client, fld_core::host — traffic
        // generation, churn, host cores and the measuring endpoint.
        "dispatch.Gen"
        | "dispatch.TenantGen"
        | "dispatch.Churn"
        | "dispatch.Depart"
        | "dispatch.HostRx"
        | "dispatch.HostDone"
        | "dispatch.HostAck"
        | "dispatch.ClientArrive" => "client",
        // fld_sim::link + rack fabric — wire (and fabric) arrival at a
        // NIC port.
        "dispatch.ArriveAtNic" => "link",
        // fld_nic — eSwitch ingress/egress, RoCE transport and its timers.
        "dispatch.NicIngress"
        | "dispatch.FldTx"
        | "dispatch.ServerPkt"
        | "dispatch.ClientPkt"
        | "dispatch.ClientTimer"
        | "dispatch.ServerTimer" => "nic",
        // fld_core::hw — FLD tx rings, rx buffer release, completions.
        "dispatch.AccelEmit"
        | "dispatch.FldRxRelease"
        | "dispatch.FldTxComplete"
        | "dispatch.ServerSend" => "hw",
        // fld_accel — delivery into the accelerator and its processing.
        "dispatch.FldRx" | "dispatch.AccelMsg" => "accel",
        _ => return None,
    })
}

/// The host-time split of a merged traced profile.
#[derive(Debug, Default)]
pub struct Split {
    /// `(layer, self ns)` in [`HOST_LAYERS`] order.
    pub ns: Vec<(&'static str, f64)>,
    /// The profile's attributed wall time (the fractions' denominator).
    pub wall_ns: f64,
    /// Phases the table does not map.
    pub unmapped: Vec<String>,
}

impl Split {
    /// Splits `profile`'s phases across the layers.
    pub fn of(profile: &Profile) -> Split {
        let mut ns: Vec<(&'static str, f64)> = HOST_LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut unmapped = Vec::new();
        for p in &profile.phases {
            match layer_of(&p.name) {
                Some(layer) => {
                    let slot = ns.iter_mut().find(|(l, _)| *l == layer);
                    slot.expect("every mapped layer is a host layer").1 += p.total_ns;
                }
                None => unmapped.push(p.name.clone()),
            }
        }
        Split {
            ns,
            wall_ns: profile.attributed_wall_ns(),
            unmapped,
        }
    }

    /// Self ns charged to `layer`.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `layer`'s share of the attributed wall time.
    pub fn frac(&self, layer: &str) -> f64 {
        self.layer_ns(layer) / self.wall_ns
    }

    /// Sum of every layer's share.
    pub fn frac_sum(&self) -> f64 {
        self.ns.iter().map(|(_, v)| v).sum::<f64>() / self.wall_ns
    }

    /// The layer with the most self time.
    pub fn top(&self) -> &'static str {
        self.ns
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |(l, _)| l)
    }
}
