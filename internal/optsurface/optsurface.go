// Package optsurface lists the settable values of an option struct, so that
// tests can pin a package's configuration surface and a new knob shows up as
// a reviewed one-line edit instead of slipping in unnoticed.
package optsurface

import (
	"reflect"
	"sort"
)

// Leaves returns the settable values of the struct v: each exported leaf
// field, recursing into exported struct fields with a dotted prefix, sorted.
func Leaves(v any) []string {
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for _, f := range reflect.VisibleFields(typ) {
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			default:
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(v))
	sort.Strings(got)
	return got
}
