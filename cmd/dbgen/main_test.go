package main

import (
	"strings"
	"testing"

	"elephants/internal/tpch"
)

// TestCheckTable: -table accepts "" and the eight base tables; anything
// else is an error that lists the valid names (it used to reach
// (*DB).Table and panic with a goroutine dump).
func TestCheckTable(t *testing.T) {
	for _, name := range append([]string{""}, tpch.TableNames...) {
		if err := checkTable(name); err != nil {
			t.Errorf("checkTable(%q) = %v, want nil", name, err)
		}
	}
	err := checkTable("nope")
	if err == nil {
		t.Fatal(`checkTable("nope") = nil, want an error`)
	}
	for _, name := range tpch.TableNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list table %q", err, name)
		}
	}
}
