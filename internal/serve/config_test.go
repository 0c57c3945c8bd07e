// Tenant-config parsing coverage: the accepted grammar, the lookup
// semantics, and the rejection table.
package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTenantsValid(t *testing.T) {
	ten, err := ParseTenants([]byte(`
# comment
tenant: alice  alice-secret-token
tenant: bob	bob-secret-token

admin: admin-secret-token
`))
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if got := ten.Names(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Names() = %v", got)
	}
	if !ten.HasAdmin() {
		t.Fatal("admin token not recognized")
	}
	if name, ok := ten.Lookup("alice-secret-token"); !ok || name != "alice" {
		t.Fatalf("Lookup(alice token) = %q, %v", name, ok)
	}
	if _, ok := ten.Lookup("wrong-token-entirely"); ok {
		t.Fatal("Lookup admitted an unknown token")
	}
	if _, ok := ten.Lookup("admin-secret-token"); ok {
		t.Fatal("admin token resolved to a tenant")
	}
	if !ten.IsAdmin("admin-secret-token") || ten.IsAdmin("alice-secret-token") {
		t.Fatal("IsAdmin misclassifies")
	}
}

func TestParseTenantsRejects(t *testing.T) {
	cases := []struct{ name, raw string }{
		{"empty", ""},
		{"comments only", "# nothing\n\n"},
		{"no separator", "tenant alice token-token-token\n"},
		{"unknown field", "zone: alice alice-token-long\n"},
		{"missing token", "tenant: alice\n"},
		{"extra field", "tenant: alice tok-long-enough extra\n"},
		{"short token", "tenant: alice short\n"},
		{"short admin", "tenant: a ok-token-len\nadmin: tiny\n"},
		{"dup tenant", "tenant: alice token-aaaaaaa\ntenant: alice token-bbbbbbb\n"},
		{"dup token", "tenant: alice same-token-here\ntenant: bob same-token-here\n"},
		{"admin reuses tenant token", "tenant: alice same-token-here\nadmin: same-token-here\n"},
		{"tenant reuses admin token", "admin: same-token-here\ntenant: alice same-token-here\n"},
		{"dup admin", "tenant: a ok-token-len\nadmin: admin-token-1\nadmin: admin-token-2\n"},
		{"tenant named admin", "tenant: admin token-aaaaaaa\n"},
		{"tenant with slash", "tenant: a/b token-aaaaaaa\n"},
		{"tenant dotdot", "tenant: .. token-aaaaaaa\n"},
		{"admin only", "admin: admin-token-1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTenants([]byte(tc.raw))
			if err == nil {
				t.Fatalf("accepted %q", tc.raw)
			}
			if !errors.Is(err, ErrMalformedTenants) {
				t.Fatalf("error %v does not wrap ErrMalformedTenants", err)
			}
		})
	}
}

func TestValidTenantName(t *testing.T) {
	for _, ok := range []string{"alice", "team-7", "a.b", "x"} {
		if !ValidTenantName(ok) {
			t.Errorf("ValidTenantName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "admin", "a/b", `a\b`, "a b", "a:b", "a\tb"} {
		if ValidTenantName(bad) {
			t.Errorf("ValidTenantName(%q) = true", bad)
		}
	}
}

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte("tenant: alice alice-token-xyz\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	ten, err := LoadTenants(path)
	if err != nil {
		t.Fatalf("LoadTenants: %v", err)
	}
	if _, ok := ten.Lookup("alice-token-xyz"); !ok {
		t.Fatal("loaded file does not resolve its token")
	}
	if _, err := LoadTenants(filepath.Join(dir, "nope.conf")); err == nil || !strings.Contains(err.Error(), "serve:") {
		t.Fatalf("missing file error = %v", err)
	}
}

// FuzzParseTenants feeds the tenant-file parser arbitrary bytes. It must
// never panic, must reject with ErrMalformedTenants, and what it accepts
// must be a usable map: every name a valid, unique namespace prefix, and
// every `tenant:` line's token resolving to that line's name.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"tenant: alice alice-secret-token\ntenant: bob\tbob-secret-token\nadmin: admin-secret-token\n",
		"# comment\n\n  tenant :  a.b   tok-long-enough  \r\n",
		"tenant: alice same-token-here\nadmin: same-token-here\n",
		"tenant: ../x token-aaaaaaa\n",
		"tenant: a token-aaaaaaa\ntenant: a token-bbbbbbb\n",
		"admin: admin-token-1\n",
		"tenant:\x00 \xff\xfe token-aaaaaaa\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ten, err := ParseTenants(raw)
		if err != nil {
			if !errors.Is(err, ErrMalformedTenants) {
				t.Fatalf("error %v does not wrap ErrMalformedTenants", err)
			}
			return
		}
		names := ten.Names()
		seen := make(map[string]bool)
		for _, name := range names {
			if !ValidTenantName(name) {
				t.Fatalf("accepted invalid tenant name %q", name)
			}
			if seen[name] {
				t.Fatalf("accepted duplicate tenant name %q", name)
			}
			seen[name] = true
		}
		lines := 0
		for _, line := range strings.Split(string(raw), "\n") {
			field, rest, ok := strings.Cut(strings.TrimSpace(line), ":")
			if !ok || strings.HasPrefix(field, "#") {
				continue
			}
			parts := strings.Fields(rest)
			switch strings.TrimSpace(field) {
			case "tenant":
				lines++
				if got, ok := ten.Lookup(parts[1]); !ok || got != parts[0] {
					t.Fatalf("token of %q looks up as %q, %v", parts[0], got, ok)
				}
			case "admin":
				token := strings.TrimSpace(rest)
				if _, ok := ten.Lookup(token); ok || !ten.IsAdmin(token) {
					t.Fatalf("admin token %q resolves as a tenant or not as admin", token)
				}
			}
		}
		if lines != len(names) {
			t.Fatalf("%d tenant lines, %d names", lines, len(names))
		}
	})
}
