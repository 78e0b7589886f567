// Package category is the FortiGuard substitute: a fixed web-content
// taxonomy, the risky-category policy the paper applies before probing
// from end-user devices, and the sampling weights that shape the
// synthetic domain populations.
//
// The paper classifies domains with FortiGuard and removes dangerous or
// sensitive categories (pornography, weapons, spam, malware — and, for
// the Top-1M study, additionally violence, drugs, dating, censorship
// circumvention, and uncategorized domains) so that requests made from
// residential proxy users' machines are safe (§3.3, §4.1.1, §5.1.2).
package category

// Category is one content category in the taxonomy.
type Category string

// Safe categories: the 20 categories the Top-10K study reports on
// (Table 4) plus the extra ones appearing in the Top-1M study (Table 8).
const (
	ChildEducation   Category = "Child Education"
	Advertising      Category = "Advertising"
	JobSearch        Category = "Job Search"
	Shopping         Category = "Shopping"
	Travel           Category = "Travel"
	Newsgroups       Category = "Newsgroups and Message Boards"
	WebHosting       Category = "Web Hosting"
	Business         Category = "Business"
	Sports           Category = "Sports"
	PersonalVehicles Category = "Personal Vehicles"
	Reference        Category = "Reference"
	Health           Category = "Health and Wellness"
	NewsMedia        Category = "News and Media"
	Freeware         Category = "Freeware and Software Downloads"
	InfoTech         Category = "Information Technology"
	Games            Category = "Games"
	Entertainment    Category = "Entertainment"
	Finance          Category = "Finance and Banking"
	Education        Category = "Education"
	Society          Category = "Society and Lifestyle"
	PersonalSites    Category = "Personal Websites and Blogs"
	Auctions         Category = "Auctions"
)

// Risky categories, excluded before any probing.
const (
	Pornography   Category = "Pornography"
	Weapons       Category = "Weapons"
	Spam          Category = "Spam"
	Malicious     Category = "Malicious Websites"
	Violence      Category = "Violence"
	Drugs         Category = "Drug Abuse"
	Dating        Category = "Dating"
	Circumvention Category = "Proxy Avoidance"
	Unknown       Category = "Unknown"
)

// Safe lists every probe-safe category in stable order.
func Safe() []Category {
	return []Category{
		ChildEducation, Advertising, JobSearch, Shopping, Travel,
		Newsgroups, WebHosting, Business, Sports, PersonalVehicles,
		Reference, Health, NewsMedia, Freeware, InfoTech, Games,
		Entertainment, Finance, Education, Society, PersonalSites,
		Auctions,
	}
}

// Risky lists every excluded category in stable order.
func Risky() []Category {
	return []Category{
		Pornography, Weapons, Spam, Malicious, Violence, Drugs,
		Dating, Circumvention, Unknown,
	}
}

// IsRisky reports whether c is excluded by the Top-10K study's filter:
// "dangerous or sensitive categories, such as Pornography, Weapons, and
// Spam" (§4.1.1), plus uncategorized domains (§3.3).
func IsRisky(c Category) bool {
	switch c {
	case Pornography, Weapons, Spam, Malicious, Violence, Drugs, Dating, Unknown:
		return true
	}
	return false
}

// IsRiskyTop1M reports whether c is excluded by the Top-1M study's
// broader filter (§5.1.2): everything in IsRisky plus censorship
// circumvention.
func IsRiskyTop1M(c Category) bool {
	return IsRisky(c) || c == Circumvention
}

// Weight is a relative sampling weight for one category.
type Weight struct {
	Cat Category
	W   float64
}

// Top10KWeights shapes the Top-10K population so the per-category
// "Tested" counts land near Table 4 (e.g. Information Technology 1,239
// of 6,766 safe-and-responding domains; Child Education only 8). Risky
// categories get enough mass that ~20% of the initial 10,000 are
// filtered out, matching 10,000 → 8,003.
func Top10KWeights() []Weight {
	return []Weight{
		{ChildEducation, 8}, {Advertising, 120}, {JobSearch, 97},
		{Shopping, 787}, {Travel, 168}, {Newsgroups, 143},
		{WebHosting, 41}, {Business, 758}, {Sports, 179},
		{PersonalVehicles, 78}, {Reference, 176}, {Health, 92},
		{NewsMedia, 938}, {Freeware, 115}, {InfoTech, 1239},
		{Games, 348}, {Entertainment, 442}, {Finance, 454},
		{Education, 583}, {Society, 160}, {PersonalSites, 140},
		{Auctions, 30},
		// Risky tail: calibrated so roughly 2,000 of 10,000 initial
		// domains are excluded by the safe-list filter.
		{Pornography, 700}, {Weapons, 90}, {Spam, 160},
		{Malicious, 250}, {Violence, 80}, {Drugs, 120},
		{Dating, 180}, {Circumvention, 60}, {Unknown, 360},
	}
}

// Top1MWeights shapes the Top-1M CDN-customer population toward the
// Table 8 "Tested" proportions (Business 1,176 and Information
// Technology 1,016 of 5,462 classified, Personal Vehicles only 79).
func Top1MWeights() []Weight {
	return []Weight{
		{ChildEducation, 6}, {Advertising, 70}, {JobSearch, 42},
		{Shopping, 418}, {Travel, 153}, {Newsgroups, 60},
		{WebHosting, 80}, {Business, 1176}, {Sports, 121},
		{PersonalVehicles, 79}, {Reference, 81}, {Health, 146},
		{NewsMedia, 345}, {Freeware, 90}, {InfoTech, 1016},
		{Games, 206}, {Entertainment, 170}, {Finance, 108},
		{Education, 239}, {Society, 148}, {PersonalSites, 176},
		{Auctions, 35},
		// "Other" bucket in Table 8 spreads over the long tail; risky
		// categories are rarer among CDN customers than in the raw
		// Top 10K (the paper excludes 152,001 → 123,614, about 19%).
		{Pornography, 350}, {Weapons, 40}, {Spam, 80},
		{Malicious, 120}, {Violence, 40}, {Drugs, 60},
		{Dating, 90}, {Circumvention, 30}, {Unknown, 190},
	}
}
