package main

// pinnedDigests are the sha256 digests of each workload's deterministic
// outputs for the default seed (1) at full size: the sweep's results-file
// bytes, the cosim reply stream, and the banded run's deterministic
// sim.Result fields. Any change to simulated behaviour moves them.
var pinnedDigests = map[string]string{
	"sweep-paper":    "3ae1a3172634f1aaf70d4851fa268e149bfe09b264d00694f3f7fe5257f983ac",
	"cosim-bursty":   "55a7e15952156ec55c625efa61f3796d87dfa7c242e93bf97cf3e8bd32950e71",
	"bigmesh-banded": "87208e5ebe273660225e7edebce26e2eaf968a0694f9f4edc5e01f7f194bcc68",
}
