package apps

import (
	"testing"
	"time"

	"lightvm/internal/sim"
)

func TestParseIPv4(t *testing.T) {
	a, err := ParseIPv4("10.1.2.3")
	if err != nil || a != 0x0a010203 {
		t.Fatalf("ParseIPv4 = %x, %v", a, err)
	}
	for _, bad := range []string{"1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Fatalf("ParseIPv4(%q) accepted", bad)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("192.168.0.0/16")
	if err != nil || p.Bits != 16 || p.Addr != 0xc0a80000 {
		t.Fatalf("prefix = %+v, %v", p, err)
	}
	if p.String() != "192.168.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
	// Host bits are masked off.
	p2, err := ParsePrefix("192.168.3.7/16")
	if err != nil || p2.Addr != 0xc0a80000 {
		t.Fatalf("unmasked prefix: %+v", p2)
	}
	// Bare address = /32.
	p3, err := ParsePrefix("1.2.3.4")
	if err != nil || p3.Bits != 32 {
		t.Fatalf("bare prefix: %+v", p3)
	}
	for _, bad := range []string{"1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "bad/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Fatalf("ParsePrefix(%q) accepted", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p, _ := ParsePrefix("10.0.0.0/8")
	in, _ := ParseIPv4("10.200.1.1")
	out, _ := ParseIPv4("11.0.0.1")
	if !p.Contains(in) || p.Contains(out) {
		t.Fatal("Contains wrong")
	}
	any := Prefix{Bits: 0}
	if !any.Contains(in) || !any.Contains(out) {
		t.Fatal("/0 must match everything")
	}
}

func TestPersonalFirewall(t *testing.T) {
	fw, err := NewPersonalFirewall("10.1.0.0/16", []string{"203.0.113.0/24"})
	if err != nil {
		t.Fatal(err)
	}
	// Subscriber's own traffic allowed (even toward blocked net —
	// the allow rule comes first).
	if a, err := fw.FilterStrings("10.1.5.5", "203.0.113.9", 80); err != nil || a != Allow {
		t.Fatalf("subscriber egress: %v %v", a, err)
	}
	// Blocked source denied.
	if a, _ := fw.FilterStrings("203.0.113.9", "10.1.5.5", 80); a != Deny {
		t.Fatalf("blocked ingress allowed")
	}
	// Unrelated traffic hits default allow.
	if a, _ := fw.FilterStrings("8.8.8.8", "10.1.5.5", 443); a != Allow {
		t.Fatal("default verdict wrong")
	}
	if fw.Allowed < 2 || fw.Denied != 1 {
		t.Fatalf("stats allowed=%d denied=%d", fw.Allowed, fw.Denied)
	}
}

func TestFirewallPortRule(t *testing.T) {
	p0, _ := ParsePrefix("0.0.0.0/0")
	fw := &Firewall{
		Rules:   []Rule{{Action: Deny, Src: p0, Dst: p0, DstPort: 23}},
		Default: Allow,
	}
	src, _ := ParseIPv4("1.1.1.1")
	dst, _ := ParseIPv4("2.2.2.2")
	if fw.Filter(src, dst, 23) != Deny {
		t.Fatal("telnet not denied")
	}
	if fw.Filter(src, dst, 80) != Allow {
		t.Fatal("http denied by port rule")
	}
}

func TestFirewallFirstMatchWins(t *testing.T) {
	p0, _ := ParsePrefix("0.0.0.0/0")
	host, _ := ParsePrefix("9.9.9.9/32")
	fw := &Firewall{
		Rules: []Rule{
			{Action: Allow, Src: host, Dst: p0},
			{Action: Deny, Src: p0, Dst: p0},
		},
		Default: Allow,
	}
	src, _ := ParseIPv4("9.9.9.9")
	other, _ := ParseIPv4("9.9.9.8")
	dst, _ := ParseIPv4("1.2.3.4")
	if fw.Filter(src, dst, 0) != Allow {
		t.Fatal("first-match allow lost")
	}
	if fw.Filter(other, dst, 0) != Deny {
		t.Fatal("catch-all deny lost")
	}
}

func TestDaytime(t *testing.T) {
	const day = 24 * time.Hour
	for i, c := range []struct {
		at   time.Duration
		want string
	}{
		{0, "day 0, 00:00:00 UTC"},
		{59 * time.Second, "day 0, 00:00:59 UTC"},
		{day + time.Hour + 2*time.Minute + 3*time.Second, "day 1, 01:02:03 UTC"},
		{25*time.Hour + 3*time.Minute + 4*time.Second, "day 1, 01:03:04 UTC"},
		{400 * day, "day 400, 00:00:00 UTC"},
	} {
		clock := sim.NewClock()
		d := &Daytime{Clock: clock}
		clock.Sleep(c.at)
		if got := d.Serve(); got != c.want {
			t.Errorf("case %d: daytime at %v = %q, want %q", i, c.at, got, c.want)
		}
		if d.Served != 1 {
			t.Fatalf("served = %d", d.Served)
		}
	}
}

func TestActionString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("action names")
	}
}
