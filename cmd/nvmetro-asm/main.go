// nvmetro-asm assembles, verifies and disassembles NVMetro eBPF classifier
// programs.
//
// Usage:
//
//	nvmetro-asm -builtin                 # list the shipped classifiers
//	nvmetro-asm -dump encryptor          # print a shipped classifier's source
//	nvmetro-asm my-classifier.s          # assemble + verify + disassemble
//	nvmetro-asm -hex my-classifier.s     # also print the encoded bytecode
//	nvmetro-asm -compile my-classifier.s # also print the compiled op stream
//
// Every ALU mnemonic (add sub mul div mod or and xor lsh rsh arsh mov neg)
// also has a 32-bit form with a `32` suffix (add32 … mov32 neg32); the
// disassembly prints whichever width was verified and reassembles to the same
// bytes. Programs referencing `ldmap rX, cfg` are assembled against the
// standard partition config map (one 16-byte entry).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nvmetro/internal/core"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/storfn"
)

func main() {
	var (
		builtin  = flag.Bool("builtin", false, "list built-in classifiers")
		dump     = flag.String("dump", "", "print a built-in classifier's source")
		hexOut   = flag.Bool("hex", false, "print encoded bytecode")
		compiled = flag.Bool("compile", false, "print the pre-decoded op stream of the compiled execution tier")
	)
	flag.Parse()

	srcs := storfn.ClassifierSources()
	if *builtin {
		var names []string
		for n := range srcs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("Built-in classifiers:")
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
		return
	}
	if *dump != "" {
		src, ok := srcs[*dump]
		if !ok {
			fmt.Fprintf(os.Stderr, "no built-in classifier %q\n", *dump)
			os.Exit(1)
		}
		fmt.Print(src)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nvmetro-asm [-hex] [-compile] <file.s> | -builtin | -dump <name>\n"+
			"  ALU mnemonics take a 32 suffix for the 32-bit forms: add32 sub32 … arsh32 mov32 neg32")
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Provide a default array map (one 16-byte entry) for every map name
	// the source references, so any classifier assembles standalone.
	maps := map[string]ebpf.Map{}
	for _, line := range strings.Split(string(src), "\n") {
		f := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(f) >= 3 && strings.ToLower(f[0]) == "ldmap" {
			if _, ok := maps[f[2]]; !ok {
				maps[f[2]] = ebpf.NewArrayMap(core.CfgValueSize, 1)
			}
		}
	}
	prog, err := ebpf.Assemble(string(src), flag.Arg(0), maps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "assemble: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("assembled %d instructions\n", len(prog.Insns))

	if err := core.NewVerifier().Verify(prog); err != nil {
		fmt.Fprintf(os.Stderr, "VERIFIER REJECTED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("verifier: OK (safe to attach)")
	fmt.Println("\ndisassembly:")
	fmt.Print(ebpf.Disassemble(prog))
	if *compiled {
		cp, err := ebpf.Compile(prog, core.NewVerifier())
		if err != nil {
			fmt.Fprintf(os.Stderr, "compile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ncompiled op stream (%d ops from %d instructions):\n", cp.NumOps(), len(prog.Insns))
		fmt.Print(cp.Dump())
	}
	if *hexOut {
		fmt.Printf("\nbytecode (%d bytes):\n", len(prog.Encode()))
		code := prog.Encode()
		for i := 0; i < len(code); i += ebpf.InsnSize {
			fmt.Printf("  %04d: % x\n", i/ebpf.InsnSize, code[i:i+ebpf.InsnSize])
		}
	}
}
