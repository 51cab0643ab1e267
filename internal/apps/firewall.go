// Package apps implements the guest applications the paper's VMs run:
// the daytime service (§3.1) and the ClickOS-style personal firewall
// (§7.1). The Minipython compute function (§7.4) is internal/minipy;
// the TLS termination proxy lives in internal/tlsterm.
package apps

import (
	"fmt"
	"strconv"
	"strings"
)

// Action is a firewall verdict.
type Action int

// Verdicts.
const (
	Deny Action = iota
	Allow
)

func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Rule matches packets by source/destination prefix and optional
// destination port (0 = any).
type Rule struct {
	Action  Action
	Src     Prefix
	Dst     Prefix
	DstPort int
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr uint32
	Bits int
}

// ParseIPv4 parses a dotted-quad address.
func ParseIPv4(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("apps: bad IPv4 %q", s)
	}
	var addr uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("apps: bad IPv4 octet %q in %q", p, s)
		}
		addr = addr<<8 | uint32(n)
	}
	return addr, nil
}

// ParsePrefix parses "a.b.c.d/len" (or a bare address as /32).
func ParsePrefix(s string) (Prefix, error) {
	addrStr, bitsStr, found := strings.Cut(s, "/")
	bits := 32
	if found {
		b, err := strconv.Atoi(bitsStr)
		if err != nil || b < 0 || b > 32 {
			return Prefix{}, fmt.Errorf("apps: bad prefix length in %q", s)
		}
		bits = b
	}
	addr, err := ParseIPv4(addrStr)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Addr: addr & mask(bits), Bits: bits}, nil
}

func mask(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&mask(p.Bits) == p.Addr
}

// String renders the prefix in CIDR form.
func (p Prefix) String() string {
	a := p.Addr
	return fmt.Sprintf("%d.%d.%d.%d/%d", a>>24, (a>>16)&0xff, (a>>8)&0xff, a&0xff, p.Bits)
}

// Firewall is the per-user packet filter run by the ClickOS VM: an
// ordered rule list with a default verdict, matched first-hit.
type Firewall struct {
	Rules   []Rule
	Default Action

	// Stats.
	Allowed uint64
	Denied  uint64
}

// NewPersonalFirewall builds the §7.1 per-subscriber configuration:
// allow established client traffic, deny a blocklist, default-allow.
func NewPersonalFirewall(clientPrefix string, blocked []string) (*Firewall, error) {
	cp, err := ParsePrefix(clientPrefix)
	if err != nil {
		return nil, err
	}
	fw := &Firewall{Default: Allow}
	for _, b := range blocked {
		bp, err := ParsePrefix(b)
		if err != nil {
			return nil, err
		}
		fw.Rules = append(fw.Rules, Rule{Action: Deny, Src: bp, Dst: Prefix{Bits: 0}})
		fw.Rules = append(fw.Rules, Rule{Action: Deny, Src: Prefix{Bits: 0}, Dst: bp})
	}
	// Always allow the subscriber's own traffic both ways.
	fw.Rules = append([]Rule{
		{Action: Allow, Src: cp, Dst: Prefix{Bits: 0}},
	}, fw.Rules...)
	return fw, nil
}

// Filter returns the verdict for a packet.
func (f *Firewall) Filter(src, dst uint32, dstPort int) Action {
	for _, r := range f.Rules {
		if !r.Src.Contains(src) || !r.Dst.Contains(dst) {
			continue
		}
		if r.DstPort != 0 && r.DstPort != dstPort {
			continue
		}
		if r.Action == Allow {
			f.Allowed++
		} else {
			f.Denied++
		}
		return r.Action
	}
	if f.Default == Allow {
		f.Allowed++
	} else {
		f.Denied++
	}
	return f.Default
}

// FilterStrings is Filter with dotted-quad addresses (convenience for
// examples).
func (f *Firewall) FilterStrings(src, dst string, dstPort int) (Action, error) {
	s, err := ParseIPv4(src)
	if err != nil {
		return Deny, err
	}
	d, err := ParseIPv4(dst)
	if err != nil {
		return Deny, err
	}
	return f.Filter(s, d, dstPort), nil
}
