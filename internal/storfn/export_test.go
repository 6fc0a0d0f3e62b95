package storfn

// StateResyncing is the mirror state while a resync pass copies dirty
// regions.
const StateResyncing = stateResyncing

// ReplicatorClassifier returns the disk-replication classifier.
var ReplicatorClassifier = replicatorClassifier
