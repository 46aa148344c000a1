package mips

// SectionLimit is the most bytes Assemble lets one section hold.
const SectionLimit = sectionLimit
