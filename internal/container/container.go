// Package container implements the baselines the paper compares VMs
// against: a Docker-like container engine (layered images, a daemon
// whose bookkeeping grows with the number of containers, shared-kernel
// memory accounting) and plain Linux processes started with fork/exec.
//
// Docker's curves in Figs. 4, 10, 11 and 14 — ~150–200 ms starts, the
// slow per-container ramp, the memory-allocation spikes, and the
// ~3,000-container memory wall — come from this engine running against
// the same host memory allocator the hypervisor uses.
package container

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/mm"
	"lightvm/internal/sim"
)

// Errors.
var (
	ErrNoSuchContainer = errors.New("container: no such container")
	ErrNoSuchImage     = errors.New("container: no such image")
)

// Layer is one read-only image layer, shared between containers.
type Layer struct {
	ID    string
	Bytes uint64
}

// Image is a layered container image.
type Image struct {
	Name   string
	Layers []Layer
	// AppMemBytes is the private memory the containerized app needs.
	AppMemBytes uint64
}

// mbBytes converts a fractional MiB figure to bytes.
func mbBytes(mib float64) uint64 { return uint64(mib * (1 << 20)) }

// MicropythonImage mirrors the Docker/Micropython container used in
// Fig. 14: a small base plus the interpreter layer; per-container
// private memory ≈4.6 MB.
func MicropythonImage() Image {
	return Image{
		Name: "micropython",
		Layers: []Layer{
			{ID: "base-alpine", Bytes: 5 << 20},
			{ID: "micropython", Bytes: 2 << 20},
		},
		AppMemBytes: mbBytes(costs.DockerPerContainerMB),
	}
}

// NoopImage is a minimal container for boot-time experiments.
func NoopImage() Image {
	return Image{
		Name:        "noop",
		Layers:      []Layer{{ID: "base-alpine", Bytes: 5 << 20}},
		AppMemBytes: mbBytes(costs.DockerPerContainerMB),
	}
}

// ProcessMicropyBytes is the private memory one Micropython process
// needs (the Fig. 14 process baseline).
func ProcessMicropyBytes() uint64 { return mbBytes(costs.ProcessMicropyMB) }

// Container is a running container.
type Container struct {
	ID        string
	Image     string
	StartTime time.Duration // measured docker-run latency
	memOwner  mm.Owner
}

// Engine is the Docker-like daemon.
type Engine struct {
	Clock *sim.Clock
	Mem   *mm.Allocator

	images     map[string]Image
	layerRefs  map[string]int      // layer → refcount (shared pages)
	layerOwner map[string]mm.Owner // layer → owner of its shared pages
	containers map[string]*Container
	nextID     int
	nextOwner  mm.Owner

	// Started counts total run operations (drives the per-container
	// daemon overhead and the periodic memory-spike behaviour).
	Started int
	// spikes counts daemon-table doublings so far; each spike
	// allocation is twice the previous one, which is what eventually
	// consumes all host memory (the Fig. 10 wall at ~3000 containers:
	// "the next large memory allocation consumes all available memory
	// and the system becomes unresponsive").
	spikes int
}

// NewEngine creates a daemon using mem for all allocations. The
// daemon's own base footprint is reserved immediately.
func NewEngine(clock *sim.Clock, mem *mm.Allocator) (*Engine, error) {
	e := &Engine{
		Clock: clock, Mem: mem,
		images:     make(map[string]Image),
		layerRefs:  make(map[string]int),
		layerOwner: make(map[string]mm.Owner),
		containers: make(map[string]*Container),
		nextOwner:  1 << 20, // keep clear of domain IDs
	}
	base := mbBytes(costs.DockerEngineBaseMB)
	if err := mem.AllocBytes(base, e.nextOwner); err != nil {
		return nil, fmt.Errorf("container: engine base memory: %w", err)
	}
	e.nextOwner++
	return e, nil
}

// Pull registers an image with the engine (layers are materialized
// lazily on first use).
func (e *Engine) Pull(img Image) { e.images[img.Name] = img }

// Containers reports the number of running containers.
func (e *Engine) Containers() int { return len(e.containers) }

// Run starts a container from image, returning it with the measured
// start latency. Layers are shared: only the first user of a layer
// pays its memory.
func (e *Engine) Run(imageName string) (*Container, error) {
	img, ok := e.images[imageName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchImage, imageName)
	}
	start := e.Clock.Now()

	// Daemon work: image resolution, namespace + cgroup setup, graph
	// driver bookkeeping that scans per-container state (the O(N)
	// term), plus the periodic large reallocation of daemon tables
	// that shows up as spikes and memory jumps in Fig. 10.
	e.Started++
	overhead := costs.DockerBase +
		time.Duration(len(e.containers))*costs.DockerPerContainer
	if e.Started%costs.DockerMemSpikeEvery == 0 {
		overhead += costs.DockerMemSpikeCost
		// The daemon's bookkeeping tables double each time.
		table := uint64(1<<30) << uint(e.spikes)
		if err := e.Mem.AllocBytes(table, e.nextOwner); err != nil {
			return nil, fmt.Errorf("container: daemon table growth to %d MB: %w", table>>20, err)
		}
		e.spikes++
		e.nextOwner++
	}
	e.Clock.Sleep(overhead)

	// Materialize (share) layers.
	for i, l := range img.Layers {
		if e.layerRefs[l.ID] == 0 {
			if err := e.Mem.AllocBytes(l.Bytes, e.nextOwner); err != nil {
				e.releaseLayers(img.Layers[:i])
				return nil, fmt.Errorf("container: layer %s: %w", l.ID, err)
			}
			e.layerOwner[l.ID] = e.nextOwner
			e.nextOwner++
		}
		e.layerRefs[l.ID]++
	}

	// Private app memory.
	owner := e.nextOwner
	e.nextOwner++
	if err := e.Mem.AllocBytes(img.AppMemBytes, owner); err != nil {
		e.releaseLayers(img.Layers)
		return nil, fmt.Errorf("container: app memory: %w", err)
	}

	// The contained process itself is a fork/exec.
	e.Clock.Sleep(costs.ForkExec)

	e.nextID++
	c := &Container{
		ID:        fmt.Sprintf("c%06d", e.nextID),
		Image:     imageName,
		StartTime: e.Clock.Now().Sub(start),
		memOwner:  owner,
	}
	e.containers[c.ID] = c
	return c, nil
}

// Stop removes a container and releases its private memory; layer
// memory is freed when the last reference drops.
func (e *Engine) Stop(id string) error {
	c, ok := e.containers[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchContainer, id)
	}
	img := e.images[c.Image]
	e.Mem.FreeOwner(c.memOwner)
	e.releaseLayers(img.Layers)
	delete(e.containers, id)
	e.Clock.Sleep(costs.ForkExec / 2) // SIGKILL + teardown
	return nil
}

// releaseLayers drops one reference to each layer, freeing a layer's
// shared pages when its last reference goes.
func (e *Engine) releaseLayers(layers []Layer) {
	for _, l := range layers {
		e.layerRefs[l.ID]--
		if e.layerRefs[l.ID] == 0 {
			e.Mem.FreeOwner(e.layerOwner[l.ID])
			delete(e.layerOwner, l.ID)
		}
	}
}

// ProcessRunner is the fork/exec baseline ("a process is created and
// launched in 3.5ms on average, 9ms at the 90% percentile").
type ProcessRunner struct {
	Clock *sim.Clock
	Mem   *mm.Allocator
	RNG   *sim.RNG

	nextOwner mm.Owner
	running   int
}

// NewProcessRunner creates the baseline runner.
func NewProcessRunner(clock *sim.Clock, mem *mm.Allocator, rng *sim.RNG) *ProcessRunner {
	return &ProcessRunner{Clock: clock, Mem: mem, RNG: rng, nextOwner: 1 << 24}
}

// Spawn forks and execs one process, returning the latency. Creation
// time "does not depend on the number of existing processes", but has
// a deterministic-seeded heavy tail reaching the paper's p90.
func (p *ProcessRunner) Spawn(memBytes uint64) (time.Duration, error) {
	start := p.Clock.Now()
	lat := costs.ForkExec
	// ~10% of spawns land in the tail up to the p90 figure and beyond
	// (page-cache misses, COW storms).
	if p.RNG != nil && p.RNG.Float64() > 0.85 {
		lat = costs.ForkExec + p.RNG.Pareto(costs.ForkExecP90-costs.ForkExec,
			3*costs.ForkExecP90, 2.5)
	}
	p.Clock.Sleep(lat)
	if memBytes > 0 {
		if err := p.Mem.AllocBytes(memBytes, p.nextOwner); err != nil {
			return 0, err
		}
		p.nextOwner++
	}
	p.running++
	return p.Clock.Now().Sub(start), nil
}

// Running reports live processes.
func (p *ProcessRunner) Running() int { return p.running }
