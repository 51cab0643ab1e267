// Package costs centralizes every calibrated timing constant in the
// LightVM reproduction. Each constant documents which paper
// observation it is calibrated against (figure / section numbers refer
// to Manco et al., SOSP'17). The control-plane code charges these
// costs against the virtual clock while performing the corresponding
// work for real, so scaling behaviour emerges from mechanism and only
// the per-primitive magnitudes are pinned here.
//
// Nothing outside this package hard-codes a latency; if a curve is off,
// this file is the only place to re-calibrate.
package costs

import "time"

// ---------------------------------------------------------------------------
// Privilege crossings (§4.2, §5: "tens of interrupts and privilege
// domain crossings" per XenStore access vs "a single software
// interrupt" for fork).
// ---------------------------------------------------------------------------

const (
	// Hypercall is one guest→hypervisor→guest round trip.
	Hypercall = 1 * time.Microsecond

	// SoftIRQ is one software interrupt delivery (event channel upcall).
	SoftIRQ = 2 * time.Microsecond

	// DomainCrossing is a context change between guest, hypervisor and
	// Dom0 kernel/userspace on the XenStore message path.
	DomainCrossing = 3 * time.Microsecond

	// IoctlRoundTrip is a Dom0 user→kernel ioctl, used by the noxs
	// device-creation path (Fig. 7b step 1).
	IoctlRoundTrip = 4 * time.Microsecond
)

// ---------------------------------------------------------------------------
// XenStore protocol (§4.2: "a single read or write ... triggers at
// least two, and most often four, software interrupts and multiple
// domain changes").
// ---------------------------------------------------------------------------

const (
	// XSRequestInterrupts is the common-case number of software
	// interrupts per store operation.
	XSRequestInterrupts = 4

	// XSRequestCrossings is the number of domain changes per store
	// operation (guest ↔ hypervisor ↔ Dom0 kernel ↔ oxenstored).
	XSRequestCrossings = 6

	// XSProcess is oxenstored's CPU time to parse and apply one
	// operation, excluding per-node work accounted separately.
	XSProcess = 25 * time.Microsecond

	// XSPerNodeTouch is charged per store node visited while resolving
	// a path, listing a directory, or validating a transaction commit.
	// This is the term that makes store interaction cost grow with the
	// number of guests (each guest adds ~40 nodes under /local/domain
	// and the backend trees).
	XSPerNodeTouch = 600 * time.Nanosecond

	// XSNameUniquenessPerGuest: "writing certain types of information,
	// such as unique guest names, incurs overhead linear with the
	// number of machines" (§4.2). Charged per existing guest on every
	// name write.
	XSNameUniquenessPerGuest = 4 * time.Microsecond

	// XSPerConnection is charged per open store connection on every
	// operation: the store daemon's event loop scans all guest rings /
	// socket connections per iteration (cxenstored literally select()s
	// over them), so each running guest makes every store op a little
	// slower. With per-creation op counts as the lever (xl ≈ 120 ops,
	// chaos ≈ 25, chaos+split ≈ 6, noxs = 0), this term produces the
	// per-toolstack slopes of Fig. 9.
	XSPerConnection = 2500 * time.Nanosecond

	// XSTxnRetry is the penalty for one failed-and-retried transaction
	// commit, on top of re-executing the writes (§4.2: overlapping
	// transactions "resulting in failed transactions that need to be
	// retried"). It is also the base of the exponential retry backoff.
	XSTxnRetry = 120 * time.Microsecond

	// XSTxnBackoffMax caps the exponential transaction-retry backoff so
	// a conflict storm cannot park a toolstack for seconds.
	XSTxnBackoffMax = 2 * time.Millisecond

	// XSStoreStall is the injected store-daemon freeze (fault plane):
	// the latency a client sees when oxenstored hits a GC pause or
	// fsync while its request is queued.
	XSStoreStall = 5 * time.Millisecond

	// XSWatchFire is the cost to deliver one watch event to a
	// registered watcher (an event-channel kick plus queue handling).
	XSWatchFire = 30 * time.Microsecond

	// XSLogLine is the cost of appending one line to ONE access-log
	// file. oxenstored logs every access to 20 files (§4.2), so every
	// logged operation pays 20×XSLogLine.
	XSLogLine = 900 * time.Nanosecond

	// XSLogFiles is the number of log files oxenstored appends to.
	XSLogFiles = 20

	// XSLogRotateLines is the rotation threshold: "rotates them when a
	// certain maximum number of lines is reached (13,215 lines by
	// default); the spikes happen when this rotation takes place".
	XSLogRotateLines = 13215

	// XSLogRotateCost is the pause while all 20 files are rotated —
	// this produces the spikes visible in Fig. 5 and Fig. 9.
	XSLogRotateCost = 90 * time.Millisecond
)

// ---------------------------------------------------------------------------
// noxs (§5.1): device info lives in a hypervisor-maintained device
// page; the toolstack uses an ioctl to the backend plus one hypercall;
// the guest maps the page with hypercalls.
// ---------------------------------------------------------------------------

const (
	// NoxsDevicePageWrite is the hypercall writing one device entry
	// into the domain's device page.
	NoxsDevicePageWrite = 3 * time.Microsecond

	// NoxsDevicePageMap is the guest-side hypercall pair asking for
	// the device page address and mapping it.
	NoxsDevicePageMap = 5 * time.Microsecond

	// NoxsBackendCreate is the backend's in-kernel work to allocate
	// the communication channel for one device (Fig. 7b step 1→2).
	NoxsBackendCreate = 250 * time.Microsecond

	// NoxsPerDomainKernelScan is a small per-existing-domain cost in
	// the Dom0 kernel module's domain lookup tables; it keeps the
	// chaos[NoXS] curve inside its gentle 8–15 ms band across 1000
	// guests (Fig. 9) without a XenStore.
	NoxsPerDomainKernelScan = 1 * time.Microsecond

	// NoxsDeviceDestroy is device teardown through noxs. The paper
	// notes destruction "which we have not yet optimized" (§6.2) makes
	// LightVM migration slightly slower than chaos+XenStore at low VM
	// counts; this constant carries that effect.
	NoxsDeviceDestroy = 18 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Toolstack work (Fig. 5 categories).
// ---------------------------------------------------------------------------

const (
	// ConfigParse is parsing the VM configuration file (xl). chaos
	// uses a leaner format costing ConfigParseChaos.
	ConfigParse      = 2 * time.Millisecond
	ConfigParseChaos = 180 * time.Microsecond

	// HypervisorReserve covers the hypercalls reserving the domain ID,
	// its vCPUs and management structures.
	HypervisorReserve = 1800 * time.Microsecond

	// MemReservePerMB prepares and populates guest pseudo-physical
	// memory (reservation, PoD bookkeeping, p2m setup).
	MemReservePerMB = 28 * time.Microsecond

	// ImageLoadPerMB is reading, parsing and laying out the kernel
	// image in memory. Together with MemReservePerMB it produces the
	// ~1 ms/MB slope of Fig. 2 (boot time grows linearly with image
	// size, ~1000 MB ≈ 1 s).
	ImageLoadPerMB = 950 * time.Microsecond

	// ImageLoadBase is the constant part of image handling (open,
	// headers, ELF notes).
	ImageLoadBase = 350 * time.Microsecond

	// ToolstackInternalXL is libxl's bookkeeping per creation
	// ("internal information and state keeping", Fig. 5).
	ToolstackInternalXL = 6 * time.Millisecond

	// ToolstackInternalChaos is libchaos's equivalent.
	ToolstackInternalChaos = 500 * time.Microsecond

	// VMBootKick is unpausing the domain (hypercall + scheduler entry).
	VMBootKick = 120 * time.Microsecond

	// ShellPoolHit is the execute-phase cost of taking a pre-created
	// shell from the chaos daemon's pool (§5.2): an RPC to the daemon
	// and list manipulation.
	ShellPoolHit = 150 * time.Microsecond

	// ShellPrepare is the daemon's own bookkeeping per prepared shell
	// (pool records, flavor matching); the hypervisor reservation and
	// memory preparation are charged by the hypercalls themselves.
	ShellPrepare = 300 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Hotplug (§5.3): "launching and executing bash scripts is a slow
// process taking tens of milliseconds".
// ---------------------------------------------------------------------------

const (
	// HotplugBashScript is the per-device cost of the fork+exec'd
	// bash hotplug script used by stock xl/udevd.
	HotplugBashScript = 28 * time.Millisecond

	// HotplugXendevd is xendevd's pre-defined in-process setup.
	HotplugXendevd = 450 * time.Microsecond

	// VifBridgeAttach is the software-switch port plumbing itself
	// (common to both paths).
	VifBridgeAttach = 200 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Xenbus split-driver handshake (Fig. 7a): backend and frontend move
// through Initialising→InitWait→Initialised→Connected, each step
// involving XenStore writes and watch fires (accounted by the store);
// these constants cover the drivers' own work.
// ---------------------------------------------------------------------------

const (
	BackendDeviceInit  = 800 * time.Microsecond
	FrontendDeviceInit = 500 * time.Microsecond
	EventChannelAlloc  = 8 * time.Microsecond
	GrantRefSetup      = 12 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Guest boot work (Fig. 4 at N=0, §6.1).
// ---------------------------------------------------------------------------

const (
	// BootUnikernelNoop: "a noop unikernel with no devices and all
	// optimizations results in a minimum boot time of 2.3 ms" — the
	// 2.3 ms total is creation (~1.9ms) + this guest-side boot work.
	BootUnikernelNoop = 400 * time.Microsecond

	// BootUnikernelDaytime includes lwip bring-up (Fig. 4: ~3 ms boot).
	BootUnikernelDaytime = 3 * time.Millisecond

	// BootTinyx is the Tinyx kernel + BusyBox init (Fig. 4: ~180 ms).
	BootTinyx = 180 * time.Millisecond

	// BootDebian is a minimal Debian jessie with systemd (Fig. 4: 1.5 s).
	BootDebian = 1500 * time.Millisecond

	// BootClickOS for the firewall use case (§7.1: "booting one
	// instance takes about 10ms" — ~8 ms boot after ~2 ms creation).
	BootClickOS = 8 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Containers and processes (§4.2, Fig. 4/10/11).
// ---------------------------------------------------------------------------

const (
	// ForkExec is the Linux process baseline: "a process is created
	// and launched (using fork/exec) in 3.5 ms on average (9 ms at the
	// 90% percentile)".
	ForkExec    = 3500 * time.Microsecond
	ForkExecP90 = 9 * time.Millisecond

	// DockerBase is Docker's fixed start cost ("Docker containers
	// start in around 200ms"; Fig. 10 shows ~150 ms on the AMD box).
	DockerBase = 150 * time.Millisecond

	// DockerPerContainer is the daemon's per-existing-container
	// overhead (graph driver + network bookkeeping), which ramps the
	// 3000th container to ~1 s in Fig. 10.
	DockerPerContainer = 280 * time.Microsecond

	// DockerMemSpikeEvery is the container count between the daemon's
	// large bookkeeping reallocations, visible as boot-time spikes in
	// Fig. 10 that "coincide with large jumps in memory consumption".
	DockerMemSpikeEvery = 512
	DockerMemSpikeCost  = 2500 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Checkpointing & migration (§6.2).
// ---------------------------------------------------------------------------

const (
	// SuspendHandshakeXS is the XenStore-mediated shutdown round
	// (control/shutdown write, watch fire, guest acknowledgment).
	SuspendHandshakeXS = 18 * time.Millisecond

	// SuspendHandshakeSysctl is the noxs sysctl split-device path
	// (shared page field + event channel).
	SuspendHandshakeSysctl = 900 * time.Microsecond

	// MemDumpPerMB serializes guest pages to the (ram)disk.
	MemDumpPerMB = 7 * time.Millisecond

	// MemLoadPerMB restores guest pages from the image.
	MemLoadPerMB = 4200 * time.Microsecond

	// XLSaveFixed / XLRestoreFixed cover libxc/libxl state handling
	// that chaos avoids (device model teardown, QEMU-ish remnants).
	// Calibrated so xl saves ≈128 ms and restores ≈550 ms for the
	// daytime unikernel at low N (Fig. 12).
	XLSaveFixed    = 95 * time.Millisecond
	XLRestoreFixed = 420 * time.Millisecond

	// CloneSnapshotPerMB is the one-time cost of snapshotting a
	// parent's memory for SnowFlock/Potemkin-style cloning (related
	// work §8): mark pages copy-on-write and seed the shared region.
	CloneSnapshotPerMB = 450 * time.Microsecond

	// CostStoreSnapshot is the flat price of asking the store daemon
	// for a consistent snapshot of its tree. The immutable store
	// captures its current root in O(1) — one protocol round trip plus
	// daemon bookkeeping — so checkpoint and clone pay this constant
	// instead of a per-node walk, regardless of how many guests are
	// registered.
	CostStoreSnapshot = 150 * time.Microsecond

	// CloneWorkingSetFraction is the private memory a fresh clone
	// needs before first divergence (the rest stays shared COW).
	CloneWorkingSetFraction = 0.1

	// MigrationTCPSetup is the control connection to the remote
	// migration daemon (§5.1: chaos opens a TCP connection and sends
	// the guest's configuration for pre-creation).
	MigrationTCPSetup = 2 * time.Millisecond

	// MigrationWireMBps is the effective transfer rate between hosts
	// (1 Gbps link ≈ 119 MiB/s; §7.1 measures 150 ms for a ClickOS VM
	// over a 1 Gbps, 10 ms link).
	MigrationWireMBps = 119.0

	// MigrationRTT is the control-plane round-trip between source and
	// destination (LAN).
	MigrationRTT = 500 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Control-plane recovery (fault plane). The paper only exercises the
// happy path; these constants price the recovery machinery §7.1's
// churn scenario implies ("users enter and leave the cell
// continuously").
// ---------------------------------------------------------------------------

const (
	// DeviceHandshakeTimeout is how long a toolstack waits on the
	// split-driver handshake before re-attaching the device (the watch
	// timeout on the backend state node). Normal handshakes finish in
	// ~1-2 ms, so one timeout means a genuinely lost event.
	DeviceHandshakeTimeout = 50 * time.Millisecond

	// DeviceReattach is the toolstack's work to re-announce a stalled
	// device (reset the state nodes, re-kick the backend watch), on
	// top of the store writes themselves.
	DeviceReattach = 300 * time.Microsecond

	// MigrationResumeSetup re-establishes a dropped migration TCP
	// stream on the resumable (noxs) path: reconnect plus agreeing on
	// the resume offset with the remote daemon.
	MigrationResumeSetup = 3 * time.Millisecond

	// MigrationRollback is the source-side cost of abandoning a
	// migration: resume handshake with the suspended guest, on top of
	// the destination teardown charged by its own operations.
	MigrationRollback = 2 * time.Millisecond

	// PoolDaemonRestart is the supervisor respawning a crashed chaos
	// pool daemon (exec + config reload + registering flavors). Until
	// it elapses, Take falls back to the cold inline-prepare path.
	PoolDaemonRestart = 250 * time.Millisecond

	// HostFailureDetect is the cluster's heartbeat timeout: how long
	// until surviving hosts declare a silent member dead and start
	// failover (§7.1's placement re-instantiates its VMs).
	HostFailureDetect = 1500 * time.Millisecond

	// ClusterLookahead is the one-way control-network latency between
	// datacenter cluster members — scheduler→host commands, host→
	// scheduler reports, host→host checkpoint streams all pay at least
	// this much. It doubles as the sharded sim core's conservative
	// lookahead (sim.Engine): no cross-host interaction can complete
	// in less, which is exactly what lets per-host timelines run in
	// parallel between synchronization points.
	ClusterLookahead = 1 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Gray-failure plane (cluster health monitor). Defaults for the
// heartbeat protocol and the deterministic shapes of the three gray
// fault kinds; ext-gray sweeps the detection timeout around these.
// ---------------------------------------------------------------------------

const (
	// HeartbeatPeriod is the interval at which every member reports to
	// the cluster's health monitor (a 100 ms gossip/ping cadence, the
	// order real fleet agents use).
	HeartbeatPeriod = 100 * time.Millisecond

	// HeartbeatSuspect is the default silence after which a member is
	// suspected and excluded from new placements (but keeps its VMs).
	HeartbeatSuspect = 300 * time.Millisecond

	// HeartbeatDead is the default silence after which a suspect is
	// declared dead and its VMs failed over. ext-gray sweeps this — it
	// is the availability-vs-false-positive knob.
	HeartbeatDead = 1200 * time.Millisecond

	// GrayFlapMin/GrayFlapExtra bound a host-flap outage: the victim is
	// silent for GrayFlapMin plus a seeded jitter in [0, GrayFlapExtra),
	// then returns as if nothing happened.
	GrayFlapMin   = 500 * time.Millisecond
	GrayFlapExtra = 2500 * time.Millisecond

	// GrayPartitionMin/GrayPartitionExtra bound how long one edge of
	// the reachability matrix stays cut.
	GrayPartitionMin   = 800 * time.Millisecond
	GrayPartitionExtra = 3 * time.Second

	// GraySlowMin/GraySlowExtra bound a slow-host episode; while it
	// lasts, the victim's control-plane work and heartbeat delivery are
	// dilated by a factor in [GraySlowFactorMin, GraySlowFactorMax).
	GraySlowMin   = 400 * time.Millisecond
	GraySlowExtra = 2 * time.Second
)

// GraySlowFactorMin/GraySlowFactorMax bound the slow-host dilation
// factor (2× is a failing disk's metadata path; 8× approaches — but
// deliberately does not reach, under the default timeouts — looking
// dead).
const (
	GraySlowFactorMin = 2.0
	GraySlowFactorMax = 8.0
)

// ---------------------------------------------------------------------------
// Scheduling & idle load (Fig. 11, Fig. 15).
// ---------------------------------------------------------------------------

const (
	// CtxSwitch is one vCPU context switch in the hypervisor.
	CtxSwitch = 25 * time.Microsecond

	// TimesliceRR is the round-robin service quantum the Xen credit
	// scheduler gives each runnable vCPU in the use-case experiments
	// (§7.1: "the Xen scheduler will effectively round-robin through
	// the VMs"; 1000 active VMs add ~60 ms RTT → ~60 µs each).
	TimesliceRR = 60 * time.Microsecond
)

// Idle guest behaviour. Two distinct quantities, per the paper's own
// two measurements:
//
//   - WakeRate/WakeWork drive boot-time dilation (Fig. 11): idle Tinyx
//     guests "run occasional background tasks", and each wakeup also
//     costs the hypervisor a context switch. Docker/unikernel idle
//     instances do not wake.
//   - UtilDuty is the *reported* CPU utilization fraction per idle
//     guest (Fig. 15, measured via iostat+xentop), which excludes
//     most hypervisor switching overhead.
const (
	// Dom0BackendWorkPerWake is Dom0-side work (netback, timer
	// virtualization) per guest wakeup; with many chatty Linux guests
	// this dilates toolstack operations running in Dom0.
	Dom0BackendWorkPerWake = 8 * time.Microsecond

	// TinyxWakeRatePerSec: timer ticks + busybox cron-ish activity.
	TinyxWakeRatePerSec = 100.0
	// TinyxWakeWork is guest work per wakeup.
	TinyxWakeWork = 55 * time.Microsecond

	// DebianWakeRatePerSec: systemd timers, getty, background daemons.
	DebianWakeRatePerSec = 180.0
	DebianWakeWork       = 160 * time.Microsecond

	// Reported utilization duty cycles (fraction of one core consumed
	// by one idle instance), calibrated to Fig. 15 at 1000 guests on
	// 4 cores: Debian ≈25%, Tinyx ≈1%, unikernel a fraction above
	// Docker, Docker lowest.
	DebianUtilDuty    = 0.00100 // 1000 × 0.1% core = 1 core = 25% of 4
	TinyxUtilDuty     = 0.00004
	UnikernelUtilDuty = 0.0000060
	DockerUtilDuty    = 0.0000040
	Dom0UtilBase      = 0.0045 // Dom0 background (switch, logging)
)

// ---------------------------------------------------------------------------
// Networking (use cases, §7).
// ---------------------------------------------------------------------------

const (
	// BridgeForward is the Dom0 software switch's per-packet cost.
	BridgeForward = 2 * time.Microsecond

	// PingProcess is the guest-side cost to answer one echo request.
	PingProcess = 30 * time.Microsecond

	// TLSHandshakeRSA1024 is one axtls RSA-1024 private-key operation
	// plus protocol work. "around 1400 requests per second" on 14
	// cores (§7.3) ⇒ ~10 ms CPU each.
	TLSHandshakeRSA1024 = 10 * time.Millisecond

	// LwipIneffFactor: "the unikernel only achieves a fifth of the
	// throughput of Tinyx; this is mostly due to the inefficient lwip
	// stack" (§7.3).
	LwipIneffFactor = 5.0

	// MinipyEApprox is the compute-service job: "an approximation of e
	// that takes approximately 0.8 seconds" (§7.4).
	MinipyEApprox = 800 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Memory footprints (§3, §6.3). Sizes in MiB unless stated.
// ---------------------------------------------------------------------------

const (
	// Image sizes on disk (uncompressed).
	ImgDaytimeKB    = 480    // "only 480KB (uncompressed)"
	ImgNoopKB       = 300    // smaller than daytime (no lwip)
	ImgMinipythonKB = 1024   // "images of around 1MB"
	ImgClickOSKB    = 1740   // §7.1: "1.7MB in size"
	ImgTLSUniKB     = 1100   // axtls + lwip unikernel
	ImgTinyxMB      = 9.5    // "Tinyx VM (9.5MB image)"
	ImgTinyxMicroMB = 11.0   // Tinyx + Micropython
	ImgTinyxTLSMB   = 10.5   // Tinyx + axtls proxy
	ImgDebianMB     = 1126.4 // "The Debian VM is 1.1GB in size"

	// Runtime memory (MiB).
	MemDaytimeMB    = 3.6 // "can run in as little as 3.6MB of RAM"
	MemNoopMB       = 3.6
	MemMinipythonMB = 8.0   // "can run with just 8MB of memory"
	MemClickOSMB    = 8.0   // §7.1: "needs just 8MB of memory to run"
	MemTLSUniMB     = 16.0  // §7.3: "uses 16MB of RAM at runtime"
	MemTinyxMB      = 30.0  // "need around 30MBs of RAM to boot"
	MemTinyxTLSMB   = 40.0  // §7.3: "The Tinyx machine uses 40MB"
	MemDebianMB     = 111.0 // §6.3: "111MB per VM, the minimum needed"

	// Per-instance footprints for the non-VM baselines (Fig. 14):
	// Docker ≈5 GB at 1000 containers; a Micropython process ~1.4 MB.
	DockerPerContainerMB = 4.6
	DockerEngineBaseMB   = 400.0
	ProcessMicropyMB     = 1.4

	// Dom0 / host baseline memory.
	Dom0BaseMB = 512.0
)
