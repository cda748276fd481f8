package daemon

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"painter/internal/tmproto"
)

// DestList is the repeatable -dest flag of tm-edge and tm-pop: each
// value is addr:port,popid[,anycast][,gre].
type DestList []tmproto.Destination

// String implements flag.Value.
func (d *DestList) String() string { return fmt.Sprintf("%d destinations", len(*d)) }

// Set implements flag.Value: it parses one destination and appends it.
func (d *DestList) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) < 2 {
		return fmt.Errorf("want addr:port,popid[,anycast][,gre], got %q", v)
	}
	ap, err := netip.ParseAddrPort(parts[0])
	if err != nil {
		return fmt.Errorf("destination address %q: %w", parts[0], err)
	}
	pop, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return fmt.Errorf("pop id %q: %w", parts[1], err)
	}
	dest := tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: uint32(pop)}
	for _, opt := range parts[2:] {
		switch opt {
		case "anycast":
			dest.Anycast = true
		case "gre":
			dest.GRE = true
		default:
			return fmt.Errorf("unknown destination option %q (want anycast or gre)", opt)
		}
	}
	*d = append(*d, dest)
	return nil
}
