package main

import (
	"go/parser"
	"testing"
)

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"hornet/internal/noc.(*Router).Stats":                                "hornet/internal/noc.(*Router).Stats",
		"hornet/internal/noc.(*fifo[go.shape.interface {}]).push":            "hornet/internal/noc.(*fifo).push",
		"hornet/internal/noc.(*fifo[go.shape.struct { a [4]uint16 }]).reset": "hornet/internal/noc.(*fifo).reset",
		"hornet/internal/sweep.Map[go.shape.int,go.shape.string]":            "hornet/internal/sweep.Map",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReceiver(t *testing.T) {
	for src, want := range map[string]struct {
		name    string
		pointer bool
	}{
		"T":          {"T", false},
		"*T":         {"T", true},
		"*fifo[E]":   {"fifo", true},
		"pair[K, V]": {"pair", false},
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if name, pointer := receiver(e); name != want.name || pointer != want.pointer {
			t.Errorf("receiver(%s) = %s, %v; want %s, %v", src, name, pointer, want.name, want.pointer)
		}
	}
}
