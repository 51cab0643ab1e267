package tinyx

import (
	"fmt"

	"lightvm/internal/overlayfs"
)

// BuildConfig parameterizes a Tinyx image build.
type BuildConfig struct {
	// App is the target application package ("the Tinyx build system
	// takes two inputs: an application to build the image for (e.g.,
	// nginx) and the platform").
	App string
	// Platform selects kernel support ("xen" or "kvm").
	Platform string
}

// BuildResult is a finished Tinyx image.
type BuildResult struct {
	App          string
	Distribution *overlayfs.Layer // merged filesystem
	Packages     []string
	Kernel       KernelBuild
	// DistroBytes / KernelBytes / ImageBytes summarize sizes; the
	// image bundles the distribution into the kernel as an initramfs,
	// as the paper's measurements do.
	DistroBytes uint64
	KernelBytes uint64
	ImageBytes  uint64
}

// Build runs the full §3.2 pipeline with the default package
// blacklist, no whitelist, and the default kernel shrink candidates
// and boot test.
func Build(db *DB, cfg BuildConfig) (*BuildResult, error) {
	if cfg.App == "" {
		return nil, fmt.Errorf("tinyx: no application given")
	}
	if _, err := db.Get(cfg.App); err != nil {
		return nil, err
	}

	// 1. Dependency discovery: package manager closure + objdump scan.
	pkgs, err := db.Closure([]string{cfg.App, "busybox"}, DefaultBlacklist(), nil)
	if err != nil {
		return nil, err
	}

	// 2. Mount an empty overlay over a minimal debootstrap system and
	// install the packages "as would be normally done in Debian":
	// install scripts run against the full base without polluting it.
	base := debootstrapBase(db)
	upper := overlayfs.NewLayer("tinyx-upper")
	ov := overlayfs.Mount(upper, base)
	for _, name := range pkgs {
		p, err := db.Get(name)
		if err != nil {
			return nil, err
		}
		for _, f := range p.Files {
			var data []byte
			if f.Binary {
				data = SynthesizeELF(f.Path, p.Libs, f.Size)
			} else {
				data = synthText(f.Path, f.Size)
			}
			ov.Write(f.Path, data, 0o755)
		}
		if p.HasInstallScript {
			// The script runs against the debootstrap base (e.g. it
			// needs update-rc.d); its side effects land in the upper
			// layer as service glue.
			ov.Write("/etc/rc.d/"+name, []byte("#!/bin/sh\n# installed by "+name+"\n"), 0o755)
		}
	}

	// 3. "Before unmounting, we remove all cache files, any dpkg/apt
	// related files, and other unnecessary directories."
	for _, junk := range []string{"/var/cache", "/var/lib/dpkg", "/var/lib/apt", "/usr/share/doc", "/usr/share/man"} {
		ov.RemoveTree(junk)
	}

	// Unmount: take only the upper layer (the base was scaffolding).
	installed := overlayfs.Mount(upper).Flatten("tinyx-installed")

	// 4. "We overlay this directory on top of a BusyBox image as an
	// underlay and take the contents of the merged directory."
	bb := busyboxUnderlay(db)
	merged := overlayfs.Mount(overlayfs.NewLayer("glue"), bb, installed)

	// 5. "The system adds a small glue to run the application from
	// BusyBox's init."
	merged.Write("/etc/init.d/rcS",
		[]byte(fmt.Sprintf("#!/bin/sh\nmount -t proc proc /proc\nexec /usr/bin/%s\n", cfg.App)), 0o755)

	dist := merged.Flatten("tinyx-" + cfg.App)

	// 6. Kernel: tinyconfig + platform options + shrink loop.
	kb, err := BuildKernel(cfg.Platform, nil, nil)
	if err != nil {
		return nil, err
	}

	res := &BuildResult{
		App:          cfg.App,
		Distribution: dist,
		Packages:     pkgs,
		Kernel:       kb,
		DistroBytes:  dist.SizeBytes(),
		KernelBytes:  kb.SizeBytes,
	}
	// The distribution is bundled into the kernel image as an
	// initramfs (§4.2), with ~55% gzip compression.
	res.ImageBytes = kb.SizeBytes + res.DistroBytes*45/100
	return res, nil
}

// debootstrapBase is the minimal Debian base system the overlay mounts
// over — present so install scripts "expect utilities" they find, but
// never part of the output image.
func debootstrapBase(db *DB) *overlayfs.Layer {
	base := overlayfs.NewLayer("debootstrap")
	for _, name := range db.Names() {
		p, _ := db.Get(name)
		if !p.Essential && name != "libc6" && name != "busybox" {
			continue
		}
		for _, f := range p.Files {
			base.Put(f.Path, synthText(f.Path, f.Size), 0o755)
		}
	}
	base.Put("/var/cache/debootstrap.log", synthText("log", 64*1024), 0o644)
	base.Put("/usr/share/doc/base/README", synthText("doc", 8*1024), 0o644)
	return base
}

// busyboxUnderlay is the BusyBox base image providing "basic
// functionality".
func busyboxUnderlay(db *DB) *overlayfs.Layer {
	bb := overlayfs.NewLayer("busybox")
	p, err := db.Get("busybox")
	if err == nil {
		for _, f := range p.Files {
			bb.Put(f.Path, SynthesizeELF(f.Path, p.Libs, f.Size), 0o755)
		}
	}
	for _, applet := range []string{"sh", "init", "mount", "ifconfig", "wget", "cat", "ls"} {
		bb.Put("/bin/"+applet, []byte("#!busybox-applet "+applet+"\n"), 0o755)
	}
	return bb
}

// synthText produces deterministic non-binary file content of size n.
func synthText(seed string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + (i+len(seed))%26)
	}
	return out
}
