package registry

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// The manifest is the registry's root: the authoritative list of
// registered model names, written atomically (temp file + rename) on
// every create/delete. Per-model state lives next to it as
// <name>.snap (a PULPHD03 serving snapshot, internal/model) and
// <name>.wal (the write-ahead log) — the manifest extends that family
// with the same framing discipline: magic, version, CRC-32 trailer.
//
// Layout (little-endian):
//
//	8-byte magic "PULPHDRM" | u32 version (1) | u32 count |
//	count × (u16 name length | name bytes) | u32 CRC-32 (IEEE)
//
// The CRC covers everything after the magic.

// manifestMagic identifies a registry manifest.
var manifestMagic = [8]byte{'P', 'U', 'L', 'P', 'H', 'D', 'R', 'M'}

// manifestVersion is the current format version.
const manifestVersion = 1

// maxManifestModels bounds how many names a manifest may declare —
// generous (the resident budget, not the manifest, is the real
// capacity limit) but enough to stop a hostile count field from
// asking for gigabytes.
const maxManifestModels = 1 << 20

// modelNameRE is the shape of a valid model name: it doubles as the
// file-name-safety check (names become <name>.snap/<name>.wal), so no
// separators, no leading dot, 64 bytes max.
var modelNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidateModelName reports whether name may register: non-empty,
// leading alphanumeric, then alphanumerics, dots, underscores or
// dashes, at most 64 bytes. The shape keeps names safe as path
// components and HTTP path segments.
func ValidateModelName(name string) error {
	if !modelNameRE.MatchString(name) {
		return fmt.Errorf("%w: model name %q (want ^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$)", ErrInvalid, name)
	}
	return nil
}

// EncodeManifest renders the name list in manifest format. Names are
// written sorted, so equal registries produce byte-identical
// manifests.
func EncodeManifest(names []string) ([]byte, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	buf := append([]byte(nil), manifestMagic[:]...)
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[0:], manifestVersion)
	binary.LittleEndian.PutUint32(scratch[4:], uint32(len(sorted)))
	buf = append(buf, scratch[:8]...)
	for _, name := range sorted {
		if err := ValidateModelName(name); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint16(scratch[0:], uint16(len(name)))
		buf = append(buf, scratch[:2]...)
		buf = append(buf, name...)
	}
	binary.LittleEndian.PutUint32(scratch[0:], crc32.ChecksumIEEE(buf[len(manifestMagic):]))
	return append(buf, scratch[:4]...), nil
}

// DecodeManifest parses manifest bytes, validating framing, version,
// CRC, and every name. Corrupt input is an error, never a panic, and
// a manifest that decodes re-encodes byte-identically (names are
// stored sorted).
func DecodeManifest(data []byte) ([]string, error) {
	if len(data) < len(manifestMagic)+8+4 {
		return nil, fmt.Errorf("registry: manifest short: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != manifestMagic {
		return nil, fmt.Errorf("registry: bad manifest magic %q", data[:8])
	}
	body, trailer := data[8:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("registry: manifest CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(body[0:]); v != manifestVersion {
		return nil, fmt.Errorf("registry: manifest version %d unsupported", v)
	}
	count := int(binary.LittleEndian.Uint32(body[4:]))
	if count < 0 || count > maxManifestModels {
		return nil, fmt.Errorf("registry: manifest declares %d models", count)
	}
	names := make([]string, 0, min(count, 1024))
	off := 8
	prev := ""
	for i := 0; i < count; i++ {
		if len(body) < off+2 {
			return nil, fmt.Errorf("registry: manifest truncated at entry %d", i)
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if len(body) < off+n {
			return nil, fmt.Errorf("registry: manifest truncated in entry %d", i)
		}
		name := string(body[off : off+n])
		off += n
		if err := ValidateModelName(name); err != nil {
			return nil, err
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("registry: manifest names not strictly sorted at %q", name)
		}
		prev = name
		names = append(names, name)
	}
	if off != len(body) {
		return nil, fmt.Errorf("registry: manifest has %d trailing bytes", len(body)-off)
	}
	return names, nil
}

// manifestPath is the manifest file inside a registry directory.
func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// writeManifest atomically replaces the manifest in dir.
func writeManifest(dir string, names []string) error {
	data, err := EncodeManifest(names)
	if err != nil {
		return err
	}
	tmp := manifestPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("registry: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return fmt.Errorf("registry: publishing manifest: %w", err)
	}
	return nil
}

// readManifest loads the manifest in dir; a missing file is an empty
// registry.
func readManifest(dir string) ([]string, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: reading manifest: %w", err)
	}
	return DecodeManifest(data)
}
