// Package tune sets a plant knob from outside its package.
package tune

import "reach/plant"

// Apply sets the backoff option: a write from another package reaches
// the knob even though the value is a constant.
func Apply(o *plant.DialOptions) { o.Backoff = 2 }
