package vnet

import (
	"testing"

	"lightvm/internal/sim"
)

func newSwitch() (*Switch, *sim.Clock) {
	c := sim.NewClock()
	return NewSwitch(c), c
}

func TestAttachDetach(t *testing.T) {
	s, _ := newSwitch()
	if err := s.AttachPort("vif1.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachPort("vif1.0"); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if s.Ports() != 1 {
		t.Fatalf("ports = %d", s.Ports())
	}
	if err := s.DetachPort("vif1.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.DetachPort("vif1.0"); err == nil {
		t.Fatal("double detach accepted")
	}
}

func TestDeliveryToHandler(t *testing.T) {
	s, _ := newSwitch()
	_ = s.AttachPort("dst")
	var got []Packet
	_ = s.SetHandler("dst", func(p Packet) { got = append(got, p) })
	if !s.Send(Packet{Src: "a", Dst: "dst", Kind: PktUDP, Size: 1400}) {
		t.Fatal("send failed")
	}
	if len(got) != 1 || got[0].Size != 1400 {
		t.Fatalf("delivered %v", got)
	}
	if s.Count.Forwarded != 1 {
		t.Fatalf("forwarded = %d", s.Count.Forwarded)
	}
}

func TestSendToMissingPortDrops(t *testing.T) {
	s, _ := newSwitch()
	if s.Send(Packet{Dst: "ghost"}) {
		t.Fatal("send to missing port succeeded")
	}
	if s.Count.Dropped != 1 {
		t.Fatalf("dropped = %d", s.Count.Dropped)
	}
}

func TestQueueingUntilHandlerAppears(t *testing.T) {
	// Models a packet arriving while the JIT VM is still booting.
	s, _ := newSwitch()
	_ = s.AttachPort("booting")
	if !s.Send(Packet{Dst: "booting", Kind: PktICMPEcho, Seq: 1}) {
		t.Fatal("packet for booting port dropped")
	}
	if s.Backlog() != 1 {
		t.Fatalf("backlog = %d", s.Backlog())
	}
	var got []Packet
	_ = s.SetHandler("booting", func(p Packet) { got = append(got, p) })
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("queued packet not flushed: %v", got)
	}
	if s.Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestBacklogOverflowDrops(t *testing.T) {
	s, _ := newSwitch()
	s.QueueLimit = 4
	_ = s.AttachPort("slow")
	for i := 0; i < 4; i++ {
		if !s.Send(Packet{Dst: "slow", Seq: uint64(i)}) {
			t.Fatalf("packet %d dropped below limit", i)
		}
	}
	if s.Send(Packet{Dst: "slow", Seq: 99}) {
		t.Fatal("packet above backlog limit accepted")
	}
	if s.Count.Dropped != 1 {
		t.Fatalf("dropped = %d", s.Count.Dropped)
	}
}

func TestDetachClearsBacklog(t *testing.T) {
	s, _ := newSwitch()
	_ = s.AttachPort("p")
	_ = s.Send(Packet{Dst: "p"})
	_ = s.Send(Packet{Dst: "p"})
	_ = s.DetachPort("p")
	if s.Backlog() != 0 {
		t.Fatalf("backlog after detach = %d", s.Backlog())
	}
}

func TestForwardingChargesClock(t *testing.T) {
	s, c := newSwitch()
	_ = s.AttachPort("d")
	_ = s.SetHandler("d", func(Packet) {})
	before := c.Now()
	s.Send(Packet{Dst: "d"})
	if c.Now() <= before {
		t.Fatal("forwarding consumed no time")
	}
}

func TestPingRoundTrip(t *testing.T) {
	s, _ := newSwitch()
	_ = s.AttachPort("fw")
	_ = s.AttachPort("client")
	// Firewall VM answers echoes.
	_ = s.SetHandler("fw", func(p Packet) {
		if p.Kind == PktICMPEcho {
			s.Send(Packet{Src: "fw", Dst: p.Src, Kind: PktICMPReply, Seq: p.Seq})
		}
	})
	if !s.Ping("client", "fw", 7) {
		t.Fatal("ping got no reply")
	}
	// Ping to a booting (handler-less) port queues, no reply.
	_ = s.AttachPort("cold")
	if s.Ping("client", "cold", 8) {
		t.Fatal("ping to booting VM replied")
	}
}

func TestSetHandlerUnknownPort(t *testing.T) {
	s, _ := newSwitch()
	if err := s.SetHandler("nope", func(Packet) {}); err == nil {
		t.Fatal("SetHandler on missing port accepted")
	}
}

func TestPacketKindString(t *testing.T) {
	if PktARP.String() != "arp" || PktICMPReply.String() != "icmp-reply" {
		t.Fatal("kind names wrong")
	}
}
