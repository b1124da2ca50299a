// Package model serializes serving models for deployment — the
// paper's workflow trains off-line and then "the CIM, IM, and AM
// matrices of the HD classifier ... as the trained models, are loaded
// into the ARM Cortex M4 for testing" (§4.1).
//
// Because the IM and CIM are derived deterministically from the
// configuration seed, only the configuration and the learned AM state
// need to be stored; the loader regenerates the item memories
// bit-for-bit. The one format is the PULPHD03 snapshot (serving.go):
// a little-endian binary stream with a magic header and a CRC-32
// trailer over the payload.
package model

// limits guarding against corrupt or hostile inputs.
const (
	maxDimension = 1 << 20
	maxClasses   = 1 << 12
	maxChannels  = 1 << 12
	maxLevels    = 1 << 12
	maxNGram     = 1 << 8
	maxWindow    = 1 << 16
	maxLabelLen  = 256
)
