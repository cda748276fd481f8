package daemon

import (
	"net/netip"
	"strings"
	"testing"

	"painter/internal/tmproto"
)

func TestDestListSet(t *testing.T) {
	addr := netip.MustParseAddr("127.0.0.1")
	cases := []struct {
		in      string
		want    tmproto.Destination
		wantErr string // substring of the error; empty means success
	}{
		{in: "127.0.0.1:4000,3", want: tmproto.Destination{Addr: addr, Port: 4000, PoP: 3}},
		{in: "127.0.0.1:4000,3,anycast,gre", want: tmproto.Destination{Addr: addr, Port: 4000, PoP: 3, Anycast: true, GRE: true}},
		{in: "127.0.0.1,3", wantErr: `destination address "127.0.0.1"`},
		{in: "127.0.0.1:4000,pop1", wantErr: `pop id "pop1"`},
		{in: "127.0.0.1:4000,3,tcp", wantErr: `unknown destination option "tcp"`},
		{in: "127.0.0.1:4000", wantErr: "want addr:port,popid"},
	}
	for _, c := range cases {
		var d DestList
		err := d.Set(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Set(%q) error = %v, want one containing %q", c.in, err, c.wantErr)
			}
			if len(d) != 0 {
				t.Errorf("Set(%q) failed but appended %v", c.in, d)
			}
			continue
		}
		if err != nil {
			t.Errorf("Set(%q): %v", c.in, err)
			continue
		}
		if len(d) != 1 || d[0] != c.want {
			t.Errorf("Set(%q) = %+v, want [%+v]", c.in, d, c.want)
		}
	}
	var d DestList
	for _, v := range []string{"127.0.0.1:4000,1", "127.0.0.1:4001,2"} {
		if err := d.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(d) != 2 || d.String() != "2 destinations" {
		t.Errorf("repeated -dest = %+v (%s), want two destinations", d, d.String())
	}
}
