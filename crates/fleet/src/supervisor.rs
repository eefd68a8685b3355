//! The replica supervisor: spawn, probe, restart.
//!
//! A [`Supervisor`] owns N child processes (normally `modsynd` replicas on
//! consecutive ports) and drives them from a deterministic [`tick`]
//! (crash-only supervision in the Erlang style, on `std::process`):
//!
//! * **Probing** — every tick each replica is checked for liveness:
//!   process exit always counts as dead; [`HealthMode::Http`] additionally
//!   requires a 200 from `GET /healthz` on the replica's port. (Liveness,
//!   not readiness — a replica busy replaying its journal must not be
//!   killed for it.)
//! * **Restarts** — a dead replica is restarted after a capped exponential
//!   backoff (reset by a healthy probe), so a crash-looping binary cannot
//!   busy-spin the supervisor.
//! * **Storm detection** — when a replica dies more than
//!   [`FleetConfig::storm_threshold`] times within
//!   [`FleetConfig::storm_window`], restarts pause until the window
//!   slides: the fleet serves degraded on the survivors instead of
//!   churning.
//! * **Chaos** — the `fleet.replica-kill` fault site is probed once per
//!   replica per tick; when an armed plan fires, the replica is SIGKILLed
//!   (`Child::kill`), which is exactly the `kill -9` the chaos matrix
//!   certifies recovery from.
//!
//! [`tick`]: Supervisor::tick

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use modsyn_fault::{site, Faults};
use modsyn_svc::client;

/// How a replica's health is judged, beyond "the process is running".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthMode {
    /// Process liveness only — lets the supervisor be tested with any
    /// binary (`/bin/sleep`), no HTTP endpoint required.
    Process,
    /// Process liveness *and* a 200 from `GET /healthz` on the replica's
    /// port (the `modsynd` fleet mode).
    Http,
}

/// Fleet shape and supervision tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Argv template for one replica; `{port}` and `{replica}` in any
    /// argument are substituted per replica.
    pub command: Vec<String>,
    /// Replica count.
    pub replicas: usize,
    /// First port; replica `i` gets `base_port + i`.
    pub base_port: u16,
    /// Health judgement (see [`HealthMode`]).
    pub health: HealthMode,
    /// HTTP probe timeout ([`HealthMode::Http`] only).
    pub probe_timeout: Duration,
    /// First restart delay after a death; doubles per consecutive death.
    pub backoff_initial: Duration,
    /// Restart delay cap.
    pub backoff_max: Duration,
    /// Storm detection window.
    pub storm_window: Duration,
    /// Deaths within the window that pause restarts.
    pub storm_threshold: usize,
    /// Fault handle probed at `fleet.replica-kill` (per replica per tick).
    pub faults: Faults,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            command: Vec::new(),
            replicas: 3,
            base_port: 7180,
            health: HealthMode::Http,
            probe_timeout: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            storm_window: Duration::from_secs(10),
            storm_threshold: 5,
            faults: Faults::none(),
        }
    }
}

/// One supervision decision, for logs and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// A replica process was (re)started.
    Started {
        /// Replica index.
        replica: usize,
        /// Replica port.
        port: u16,
        /// OS process id.
        pid: u32,
        /// Lifetime restart count (0 = the initial start).
        restarts: u64,
    },
    /// A replica was found dead (exited, or failed its health probe).
    Died {
        /// Replica index.
        replica: usize,
        /// Replica port.
        port: u16,
    },
    /// A dead replica is waiting out its restart backoff.
    BackingOff {
        /// Replica index.
        replica: usize,
        /// Remaining delay, in milliseconds (coarse, for logging).
        remaining_ms: u64,
    },
    /// Restarts are paused: too many deaths inside the storm window.
    Storm {
        /// Replica index.
        replica: usize,
        /// Deaths currently inside the window.
        in_window: usize,
    },
    /// An armed `fleet.replica-kill` fault SIGKILLed this replica.
    KillInjected {
        /// Replica index.
        replica: usize,
        /// Replica port.
        port: u16,
    },
}

#[derive(Debug)]
struct Replica {
    port: u16,
    command: Vec<String>,
    child: Option<Child>,
    restarts: u64,
    deaths: VecDeque<Instant>,
    backoff: Duration,
    backoff_until: Option<Instant>,
}

/// The running fleet. Dropping it kills every child.
#[derive(Debug)]
pub struct Supervisor {
    config: FleetConfig,
    replicas: Vec<Replica>,
}

impl Supervisor {
    /// Spawns every replica and returns the supervisor. Replica `i`
    /// listens on `base_port + i` (the command template decides whether it
    /// actually binds there — `modsynfleet` passes `--addr
    /// 127.0.0.1:{port}`).
    ///
    /// # Errors
    ///
    /// The first spawn failure (already-spawned replicas are killed).
    pub fn start(config: FleetConfig) -> std::io::Result<Supervisor> {
        let mut replicas = Vec::with_capacity(config.replicas);
        for i in 0..config.replicas {
            let port = config.base_port + i as u16;
            let command = substitute(&config.command, i, port);
            let mut replica = Replica {
                port,
                command,
                child: None,
                restarts: 0,
                deaths: VecDeque::new(),
                backoff: config.backoff_initial,
                backoff_until: None,
            };
            replica.spawn()?;
            replicas.push(replica);
        }
        Ok(Supervisor { config, replicas })
    }

    /// The fleet's addresses (`127.0.0.1:port` per replica), for a
    /// [`crate::FleetRouter`].
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas
            .iter()
            .map(|r| SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), r.port))
            .collect()
    }

    /// The OS pid of a replica's current process, if it has one.
    pub fn pid(&self, replica: usize) -> Option<u32> {
        self.replicas.get(replica)?.child.as_ref().map(Child::id)
    }

    /// Lifetime restart count of one replica.
    pub fn restarts(&self, replica: usize) -> u64 {
        self.replicas.get(replica).map_or(0, |r| r.restarts)
    }

    /// SIGKILLs one replica now (the chaos lever; `kill -9` semantics via
    /// [`Child::kill`]). The corpse is left for the next [`Supervisor::tick`]
    /// to discover, so the death goes through the normal
    /// `Died → backoff → restart` path. Returns false for an unknown index
    /// or an already-dead replica.
    pub fn kill(&mut self, replica: usize) -> bool {
        let Some(r) = self.replicas.get_mut(replica) else {
            return false;
        };
        match r.child.as_mut() {
            Some(child) => {
                if !matches!(child.try_wait(), Ok(None)) {
                    return false; // already exited; tick() will reap it
                }
                let _ = child.kill();
                // Reap the zombie now; the stored exit status keeps the
                // corpse visible to the next tick's health judgement.
                let _ = child.wait();
                true
            }
            None => false,
        }
    }

    /// One supervision pass at `now`: probe the `fleet.replica-kill` fault
    /// site, judge health, reap the dead, restart after backoff (unless a
    /// storm is in progress). Returns the decisions made, in replica
    /// order.
    pub fn tick(&mut self, now: Instant) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        for i in 0..self.replicas.len() {
            // Chaos first: an injected kill this tick is then *observed*
            // by the same tick's health judgement below.
            if self.replicas[i].child.is_some() && self.config.faults.fire(site::FLEET_REPLICA_KILL)
            {
                let port = self.replicas[i].port;
                self.kill(i);
                events.push(FleetEvent::KillInjected { replica: i, port });
            }
            let r = &mut self.replicas[i];
            let alive = r.judge(self.config.health, self.config.probe_timeout);
            if alive {
                r.backoff = self.config.backoff_initial;
                r.backoff_until = None;
                continue;
            }
            if r.reap() {
                events.push(FleetEvent::Died {
                    replica: i,
                    port: r.port,
                });
                r.deaths.push_back(now);
                r.backoff_until = Some(now + r.backoff);
                r.backoff = (r.backoff * 2).min(self.config.backoff_max);
            }
            while let Some(&t) = r.deaths.front() {
                if now.duration_since(t) > self.config.storm_window {
                    r.deaths.pop_front();
                } else {
                    break;
                }
            }
            if r.deaths.len() >= self.config.storm_threshold {
                events.push(FleetEvent::Storm {
                    replica: i,
                    in_window: r.deaths.len(),
                });
                continue; // serve degraded until the window slides
            }
            if let Some(until) = r.backoff_until {
                if now < until {
                    events.push(FleetEvent::BackingOff {
                        replica: i,
                        remaining_ms: until.duration_since(now).as_millis() as u64,
                    });
                    continue;
                }
            }
            if r.spawn().is_ok() {
                r.restarts += 1;
                r.backoff_until = None;
                events.push(FleetEvent::Started {
                    replica: i,
                    port: r.port,
                    pid: r.child.as_ref().map_or(0, Child::id),
                    restarts: r.restarts,
                });
            }
        }
        events
    }

    /// Kills every replica and reaps it (also what drop does).
    pub fn shutdown(&mut self) {
        for r in &mut self.replicas {
            if let Some(mut child) = r.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Replica {
    fn spawn(&mut self) -> std::io::Result<()> {
        let (program, args) = self.command.split_first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty command")
        })?;
        // Children own no pipes: a replica blocked writing into a full,
        // never-drained pipe would look healthy and serve nothing.
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        self.child = Some(child);
        Ok(())
    }

    /// True when the replica should be treated as alive this tick.
    fn judge(&mut self, health: HealthMode, probe_timeout: Duration) -> bool {
        let Some(child) = self.child.as_mut() else {
            return false;
        };
        // A reaped exit status means dead under either mode.
        if !matches!(child.try_wait(), Ok(None)) {
            return false;
        }
        match health {
            HealthMode::Process => true,
            HealthMode::Http => {
                let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), self.port);
                matches!(
                    client::request(addr, "GET", "/healthz", b"", probe_timeout),
                    Ok(r) if r.status == 200
                )
            }
        }
    }

    /// Clears a dead child, returning true when there was one to clear
    /// (i.e. this tick *discovered* the death).
    fn reap(&mut self) -> bool {
        match self.child.take() {
            Some(mut child) => {
                let _ = child.kill(); // no-op if already exited
                let _ = child.wait();
                true
            }
            None => false,
        }
    }
}

/// Substitutes `{port}` and `{replica}` in an argv template.
fn substitute(template: &[String], replica: usize, port: u16) -> Vec<String> {
    template
        .iter()
        .map(|arg| {
            arg.replace("{port}", &port.to_string())
                .replace("{replica}", &replica.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(command: &[&str], replicas: usize) -> FleetConfig {
        FleetConfig {
            command: command.iter().map(|s| s.to_string()).collect(),
            replicas,
            base_port: 0, // Process mode never dials the port
            health: HealthMode::Process,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(8),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn substitution_fills_port_and_replica() {
        let argv: Vec<String> = [
            "modsynd",
            "--addr",
            "127.0.0.1:{port}",
            "--tag",
            "r{replica}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            substitute(&argv, 2, 7182),
            vec!["modsynd", "--addr", "127.0.0.1:7182", "--tag", "r2"]
        );
    }

    #[test]
    fn long_lived_children_stay_up_and_die_on_shutdown() {
        let mut sup = Supervisor::start(config(&["sleep", "60"], 2)).unwrap();
        let now = Instant::now();
        assert!(sup.tick(now).is_empty(), "healthy fleet makes no decisions");
        let pid = sup.pid(0).unwrap();
        assert!(pid > 0);
        sup.shutdown();
        assert!(sup.pid(0).is_none());
    }

    #[test]
    fn a_killed_replica_restarts_after_backoff() {
        let mut sup = Supervisor::start(config(&["sleep", "60"], 2)).unwrap();
        let first_pid = sup.pid(1).unwrap();
        assert!(sup.kill(1));
        let t0 = Instant::now();
        // Death tick: discovers the kill, schedules the backoff.
        let events = sup.tick(t0);
        assert!(
            events.contains(&FleetEvent::Died {
                replica: 1,
                port: 1
            }),
            "{events:?}"
        );
        // Before the backoff elapses nothing restarts…
        let events = sup.tick(t0);
        assert!(
            matches!(events[..], [FleetEvent::BackingOff { replica: 1, .. }]),
            "{events:?}"
        );
        // …after it, the replica comes back with a new pid.
        let events = sup.tick(t0 + Duration::from_millis(5));
        assert!(
            matches!(
                events[..],
                [FleetEvent::Started {
                    replica: 1,
                    restarts: 1,
                    ..
                }]
            ),
            "{events:?}"
        );
        assert_ne!(sup.pid(1).unwrap(), first_pid);
        assert_eq!(sup.restarts(1), 1);
    }

    #[test]
    fn crash_looping_replicas_trip_the_storm_brake() {
        let mut cfg = config(&["true"], 1); // exits immediately, forever
        cfg.storm_threshold = 3;
        cfg.backoff_initial = Duration::ZERO;
        cfg.backoff_max = Duration::ZERO;
        let mut sup = Supervisor::start(cfg).unwrap();
        let t0 = Instant::now();
        let mut stormed = false;
        for i in 0..20 {
            // Space the ticks out virtually; zero backoff keeps restarts
            // immediate until the storm brake takes over.
            std::thread::sleep(Duration::from_millis(2));
            let events = sup.tick(t0 + Duration::from_millis(i * 3));
            if events.iter().any(|e| matches!(e, FleetEvent::Storm { .. })) {
                stormed = true;
                break;
            }
        }
        assert!(stormed, "3 deaths in-window must pause restarts");
    }

    #[test]
    fn injected_replica_kill_fires_and_is_restarted() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let mut cfg = config(&["sleep", "60"], 2);
        cfg.backoff_initial = Duration::ZERO;
        cfg.faults = FaultPlan::new("test", 11)
            .rule(FaultRule::at(site::FLEET_REPLICA_KILL).times(1))
            .arm();
        let mut sup = Supervisor::start(cfg.clone()).unwrap();
        let t0 = Instant::now();
        let events = sup.tick(t0);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::KillInjected { replica: 0, .. })),
            "{events:?}"
        );
        assert_eq!(cfg.faults.injected_at(site::FLEET_REPLICA_KILL), 1);
        // The kill is observed and the replica restarted (zero backoff —
        // possibly a tick later, once the death is reaped).
        let mut restarted = sup.restarts(0) == 1;
        for i in 1..=3 {
            if restarted {
                break;
            }
            let _ = sup.tick(t0 + Duration::from_millis(i));
            restarted = sup.restarts(0) == 1;
        }
        assert!(restarted, "injected kill must lead to a restart");
    }
}
