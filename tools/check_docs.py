#!/usr/bin/env python3
"""Documentation consistency checker (the `docs-check` CI job).

Validates, across README.md and every docs/*.md file:

  1. Internal markdown links resolve: relative link targets exist on disk
     (resolved from the containing file), and `#anchor` fragments match a
     heading in the target file (GitHub slug rules). http(s)/mailto links
     are skipped.
  2. `path/file.ext:line` code references point at a real file with at
     least that many lines, so renames and large edits can't silently
     strand the docs.
  3. README.md does not duplicate a docs/ heading: the README is an
     overview that links into docs/, not a second copy of it.
  4. Every markdown file that a source file under src/, bench/, tools/
     or tests/ names (in a comment or a help string) exists, resolved
     from the repo root, the file's own directory, or docs/.

Exits 0 when clean, 1 with one line per problem otherwise.

Usage: tools/check_docs.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

# [text](target) — excluding images; target captured up to the first ')'.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")
# src/mapreduce/shuffle.h:123 style code references.
CODE_REF_RE = re.compile(
    r"\b((?:src|tests|tools|bench|examples|docs)/[\w./-]+\.(?:h|cc|cpp|py|md|json|txt|yml)):(\d+)\b"
)


# A markdown file name in source text: a whole path-like token ending in .md.
MD_NAME_RE = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)(?!\w)")
SOURCE_DIRS = ("src", "bench", "tools", "tests")
SOURCE_EXTS = (".h", ".cc", ".cpp", ".py", ".txt")


def github_slug(heading):
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation,
    spaces to hyphens (inline code/emphasis markers stripped first)."""
    text = re.sub(r"[`*_]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def parse_doc(path):
    """Returns (lines, headings) with fenced code blocks blanked out so
    links and headings inside ``` fences are ignored."""
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    lines = []
    headings = []
    in_fence = False
    for line in raw:
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        if in_fence:
            lines.append("")
            continue
        lines.append(line)
        m = HEADING_RE.match(line)
        if m:
            headings.append(m.group(2).strip())
    return lines, headings


def check_file(path, root, anchors_by_file, problems):
    lines, _ = parse_doc(path)
    base = os.path.dirname(path)
    rel = os.path.relpath(path, root)
    for lineno, line in enumerate(lines, 1):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            frag = None
            if "#" in target:
                target, frag = target.split("#", 1)
            if target == "":
                target_path = path  # same-file anchor
            else:
                target_path = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(target_path):
                    problems.append(
                        "%s:%d: broken link target %s" % (rel, lineno, m.group(1))
                    )
                    continue
            if frag is not None:
                if not target_path.endswith(".md"):
                    continue
                anchors = anchors_by_file.get(os.path.abspath(target_path))
                if anchors is None:
                    _, headings = parse_doc(target_path)
                    anchors = {github_slug(h) for h in headings}
                    anchors_by_file[os.path.abspath(target_path)] = anchors
                if frag not in anchors:
                    problems.append(
                        "%s:%d: broken anchor #%s in link to %s"
                        % (rel, lineno, frag, target or os.path.basename(path))
                    )
        for m in CODE_REF_RE.finditer(line):
            ref_path = os.path.join(root, m.group(1))
            ref_line = int(m.group(2))
            if not os.path.exists(ref_path):
                problems.append(
                    "%s:%d: code reference to missing file %s" % (rel, lineno, m.group(1))
                )
                continue
            with open(ref_path, encoding="utf-8", errors="replace") as f:
                num_lines = sum(1 for _ in f)
            if ref_line > num_lines:
                problems.append(
                    "%s:%d: code reference %s:%d past end of file (%d lines)"
                    % (rel, lineno, m.group(1), ref_line, num_lines)
                )


def check_source_md_refs(root, problems):
    """Flags markdown file names in source files that resolve to no file."""
    docs_dir = os.path.join(root, "docs")
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, 1):
                        for m in MD_NAME_RE.finditer(line):
                            ref = m.group(1)
                            if not any(
                                os.path.exists(os.path.join(base, ref))
                                for base in (root, dirpath, docs_dir)
                            ):
                                problems.append(
                                    "%s:%d: reference to missing %s"
                                    % (os.path.relpath(path, root), lineno, ref)
                                )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None, help="repo root (default: parent of tools/)")
    args = parser.parse_args()
    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    )

    docs_dir = os.path.join(root, "docs")
    readme = os.path.join(root, "README.md")
    targets = [readme] if os.path.exists(readme) else []
    if os.path.isdir(docs_dir):
        targets += sorted(
            os.path.join(docs_dir, f)
            for f in os.listdir(docs_dir)
            if f.endswith(".md")
        )
    if not targets:
        sys.stderr.write("error: no README.md or docs/*.md found under %s\n" % root)
        return 2

    problems = []
    anchors_by_file = {}
    for path in targets:
        check_file(path, root, anchors_by_file, problems)
    check_source_md_refs(root, problems)

    # The README must not duplicate docs/ sections. Top-level titles (#) are
    # allowed to repeat ("wavemr" etc.); section headings (##+) are not.
    docs_headings = {}
    for path in targets:
        if not path.startswith(docs_dir):
            continue
        _, headings = parse_doc(path)
        for h in headings:
            docs_headings.setdefault(github_slug(h), os.path.relpath(path, root))
    if os.path.exists(readme):
        lines, _ = parse_doc(readme)
        for lineno, line in enumerate(lines, 1):
            m = HEADING_RE.match(line)
            if not m or len(m.group(1)) < 2:
                continue
            slug = github_slug(m.group(2))
            if slug in docs_headings:
                problems.append(
                    "README.md:%d: heading '%s' duplicates a section of %s — "
                    "link to it instead" % (lineno, m.group(2).strip(), docs_headings[slug])
                )

    for p in problems:
        sys.stderr.write(p + "\n")
    if problems:
        sys.stderr.write("%d documentation problem(s)\n" % len(problems))
        return 1
    print("docs check: %d file(s) clean" % len(targets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
