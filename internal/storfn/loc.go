package storfn

import (
	_ "embed"

	"nvmetro/internal/loc"
)

// Source code of the storage functions, embedded for Table I (the paper
// reports implementation sizes as evidence of the framework's ease of use).

//go:embed encryptor.go
var encryptorGoSrc string

//go:embed replicator.go
var replicatorGoSrc string

//go:embed cachefn.go
var cachefnGoSrc string

// LineCounts reports implementation sizes for Table I. Classifier sizes are
// assembly lines; UIF sizes are Go lines of the respective files. The SGX
// UIF shares encryptor.go; its SGX-specific portion is the SGXEncryptor
// half of the file plus the enclave runtime. cachefn.go's UIF portion is
// the Go code past the embedded classifier assembly and its parameter
// plumbing.
func LineCounts() map[string]int {
	srcs := ClassifierSources()
	plain, sgx := loc.Split(encryptorGoSrc, "// SGXEncryptor")
	_, cacher := loc.Split(cachefnGoSrc, "// Cacher is the host-cache UIF")
	return map[string]int{
		"encryptor-classifier":  loc.Lines(srcs["encryptor"]),
		"replicator-classifier": loc.Lines(srcs["replicator"]),
		"partition-classifier":  loc.Lines(srcs["partition"]),
		"cache-classifier":      loc.Lines(srcs["cache"]),
		"encryptor-uif":         plain,
		"sgx-uif":               sgx,
		"replicator-uif":        loc.Lines(replicatorGoSrc),
		"cache-uif":             cacher,
	}
}
